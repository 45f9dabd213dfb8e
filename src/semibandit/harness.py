"""Experiment orchestration: config resolution, replication runs, CSV output.

A single JSON config describes the environment, the algorithm, and the
run bookkeeping.  Modes: ``regret`` (phase elimination; its summary also
records the best-arm identification outcome), ``pac`` and ``error-scaling``
(pure exploration), ``design-cert`` (the anchored design alone).
``ExperimentConfig.from_dict`` resolves a config in one step: it checks each
field by one table of key -> (default, check) per object (the algorithm's by
mode, the environment's by kind, a shift's or noise's by kind from
``environment.SHIFT_KEYS`` and ``NOISE_KEYS``), works out a PAC budget, and
builds the environment.  The result is frozen, and everything after it
(``run_experiment``, each replication, each pool worker) reads only it.

Replications are seeded as ``base_seed + index`` and are consumed in index
order.  A run returns only its decisions; ``metrics.metric_blocks`` makes
every per-step column (phase, regret, active-set size, e_t) one block of
``_WRITE_BLOCK`` steps at a time, and each block goes straight to the CSV
writer and into the running sums of the mean columns.  Beside those sums
(3 x rounds), no column as long as the horizon is made: a replication holds
its record, whose declared tail is a count of rounds, a block's columns and
the writer's buffer.  Inline, each replication's blocks are formatted into
``trajectory.csv`` by a stream of their own; in a process pool, each worker
writes its own rows and then its mean columns to part files, which the
parent appends, or adds into its sums a block at a time, in index order, and
deletes.  Either way the files are byte-identical regardless of worker
count, and ``trajectory_mean.csv`` divides the sums, added in index order, a
block at a time.  What replications compute alike is computed once per run
and kept on the config's objects: the anchored design over all arms, which
``deo`` keeps on the ``FeatureSet`` of the config's environment, and the
regularizers of the pure-exploration e_t, ``estimator.regularizer`` at each t,
``ExperimentConfig.betas``.  A pool worker gets the config once, at its
start, and makes them once from its copy, so its replications share them
too; nothing is kept beyond the run.

Floats are serialized with 17 significant digits (``%.17g``), which round-trips
IEEE doubles exactly and keeps repeated runs byte-stable; ``cells.rows`` writes
the text of ``%`` on every cell of numeric columns by array operations, and
``summary.csv``, a row per replication, is ``SUMMARY_LINE % row``.  Each CSV
and the manifest is written under a temporary name and renamed when complete,
so a failed run leaves none.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .design import FW_TOL, FeatureSet, all_equal, deo
from .environment import (
    NOISE_KEYS,
    SHIFT_KEYS,
    Environment,
    NoiseSpec,
    ShiftSpec,
    assumption_audit,
    make_gap_instance,
    make_mab_embedding,
    shift_bound,
)
from .errors import (
    ConfigError,
    IoError,
    ScheduleOverflow,
    SemibanditError,
    check_int,
    check_member,
    check_positive,
    check_probability,
)
from .estimator import regularizer
from .metrics import compute_metrics, metric_blocks  # the benchmark's tracer wraps harness.compute_metrics
from .sbe import PAC_C2, RunRecord, SbeConfig, check_rounds, pac_budget, phase_length, run_pure_exploration, run_sbe

# CSV headers, each beside its line format; "%.17g" % x == f"{x:.17g}", nan, inf and -0 included
TRAJECTORY_COLUMNS = (
    "t", "replication", "phase", "arm", "reward", "inst_regret", "cum_regret", "e_t", "sqrt_t_e_t", "active_size"
)
TRAJECTORY_LINE = "%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
MEAN_COLUMNS = ("t", "mean_cum_regret", "mean_e_t", "mean_sqrt_t_e_t")
MEAN_LINE = "%d,%.17g,%.17g,%.17g\n"
SUMMARY_COLUMNS = ("replication", "seed", "final_regret", "declared_best", "declared_at", "greedy_arm", "success")
SUMMARY_LINE = "%d,%d,%.17g,%s,%s,%s,%d\n"  # one row per replication, by %; the %s cells may be empty

# steps per block of the per-step metrics and rows per block of the CSV writer
_WRITE_BLOCK = 2048


def _check_keys(obj: dict, known, prefix: str = "") -> None:
    """ConfigError naming the first key of ``obj`` that is not in ``known``, if any."""
    unknown = sorted(set(obj) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}", "unknown field")


def _check_type(value, name: str, kind: type, what: str):
    """``value`` if it is a ``kind``; else ConfigError saying it must be ``what``."""
    if not isinstance(value, kind):
        raise ConfigError(name, f"must be {what}")
    return value


@contextlib.contextmanager
def naming(name: str):
    """Turn what a bad value makes a constructor or reader raise, out of memory or stack included, into ConfigError(name)."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, ArithmeticError, OSError, MemoryError, RecursionError, SemibanditError) as exc:
        raise ConfigError(name, str(exc) or type(exc).__name__) from None


def _arms(name: str, rows=None, path=None) -> FeatureSet:
    """The one arm rule: ``rows`` or the file at ``path`` under ``naming(name)``, ConfigError unless two arms differ."""
    with naming(name):
        feats = FeatureSet(rows) if path is None else FeatureSet.from_file(path)
    if all_equal(feats.features):  # fewer than two arms, or all identical
        raise ConfigError(name, "needs at least two arms that are not all identical")
    return feats


_check_count = functools.partial(check_int, minimum=1)
_check_arms = functools.partial(check_int, minimum=2)
_check_index = functools.partial(check_int, minimum=0)
_check_object = functools.partial(_check_type, kind=dict, what="an object")
_check_string = functools.partial(_check_type, kind=str, what="a string")


def _check_path(value, name: str) -> str:
    """``value`` if it is a string that can name a file: not empty, no NUL byte; else ConfigError."""
    if not _check_string(value, name):  # Path("") is the working directory
        raise ConfigError(name, "must not be empty")
    if "\0" in value:
        raise ConfigError(name, "must not contain a NUL byte")
    return value


def check_anchor(anchor, k: int, name: str) -> int:
    """``anchor`` if it is an arm index for ``k`` arms; else ConfigError naming ``name``."""
    check_int(anchor, name, 0)
    if anchor >= k:
        raise ConfigError(name, f"must be an arm index below {k}")
    return anchor


# key -> (default, check) of the config's top level, of ``algorithm`` by mode,
# regret's read from SbeConfig's fields, and of ``environment`` by kind.  _REQUIRED
# marks a key that must be given; a key whose default is None may be absent or null.
# A check of None leaves the value to the constructor that build_environment runs
# under ``naming``.  The design-cert anchor is checked against the arms in
# from_dict.  The modes are _ALGORITHM's keys, in the order "must be one of" lists them.
_REQUIRED = object()
_DELTA = (0.1, check_probability)
_C2 = (PAC_C2, check_positive)  # scales only a PAC budget worked out from epsilon
_ALGORITHM = {
    "regret": {
        f.name: (_REQUIRED if f.default is dataclasses.MISSING else f.default, f.metadata["check"])
        for f in dataclasses.fields(SbeConfig)
    },
    "pac": {"epsilon": (_REQUIRED, check_positive), "budget": (None, check_rounds), "delta": _DELTA, "c2": _C2},
    "design-cert": {"anchor": (0, _check_index), "fw_tol": (FW_TOL, check_positive)},
    "error-scaling": {"epsilon": (None, check_positive), "budget": (_REQUIRED, check_rounds), "delta": _DELTA},
}
MODES = tuple(_ALGORITHM)
_FIELDS = {
    "mode": (_REQUIRED, functools.partial(check_member, choices=MODES)),
    "environment": (_REQUIRED, _check_object),
    "algorithm": ({}, _check_object),
    "output": ("out", _check_path),
    "replications": (1, _check_count),
    "base_seed": (0, check_int),
    "workers": (None, _check_count),
}
_OBJECT = ({}, _check_object)
_ENV_SHARED = {"kind": (_REQUIRED, None), "seed": (0, check_int), "shift": _OBJECT, "noise": _OBJECT}
_ENVIRONMENT = {
    kind: {**_ENV_SHARED, **table}
    for kind, table in {
        "gap_instance": {"d": (_REQUIRED, _check_count), "K": (_REQUIRED, _check_arms), "gap": (_REQUIRED, None),
                         "seed": (0, _check_index)},  # numpy's generator takes no negative seed
        "mab": {"mu": (_REQUIRED, None)},
        # open() reads an int path as a file descriptor
        "features": {"features": (None, None), "path": (None, _check_string), "theta": (_REQUIRED, None)},
    }.items()
}


def _resolve(obj: dict, table: dict, prefix: str = "") -> dict:
    """Each key of ``table`` with its value in ``obj`` checked, or its default; ConfigError on a bad key."""
    _check_keys(obj, table, prefix)
    resolved = {}
    for key, (default, check) in table.items():
        if key in obj and not (obj[key] is None and default is None):
            resolved[key] = obj[key] if check is None else check(obj[key], prefix + key)
        elif default is _REQUIRED:
            raise ConfigError(prefix + key, "missing field")
        else:
            resolved[key] = default
    return resolved


def _rounds(algorithm: dict) -> int:
    """Rounds one replication draws: the horizon, the budget, or 0 for design-cert."""
    return algorithm.get("horizon", algorithm.get("budget", 0))


@dataclasses.dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A config resolved: every field checked, defaults applied, the environment built.

    ``environment`` is the environment's object as written, ``written`` the
    whole config as written, and ``env`` the ``Environment`` they describe.
    ``algorithm`` holds every key the mode reads, a PAC budget included.
    ``betas``, made on first use, is what the replications of a pure mode share.
    """

    mode: str
    environment: dict
    algorithm: dict
    replications: int
    base_seed: int
    output: str
    workers: int | None
    env: Environment
    written: dict

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        """``from_dict`` of the JSON object in the file at ``path``, read under ``naming("config")``."""
        with naming("config"), open(path) as fh:
            raw = json.load(fh)
        return cls.from_dict(raw, **overrides)

    @classmethod
    def from_dict(cls, raw: dict, **overrides) -> "ExperimentConfig":
        """Resolve ``raw``, each of its top-level fields replaced by an override that is not None."""
        if not isinstance(raw, dict):
            raise ConfigError("config", "must be a JSON object")
        written = {**raw, **{name: value for name, value in overrides.items() if value is not None}}
        fields = _resolve(written, _FIELDS)
        mode = fields["mode"]
        alg = _resolve(fields["algorithm"], _ALGORITHM[mode], "algorithm.")
        env = build_environment(fields["environment"])  # raises ConfigError on bad spec
        if mode == "design-cert":
            check_anchor(alg["anchor"], env.K, "algorithm.anchor")
        elif mode == "pac" and alg["budget"] is None:
            try:  # ScheduleOverflow: a round count worked out from the algorithm is past the cap, as below
                alg["budget"] = pac_budget(env.d, env.K, alg["epsilon"], alg["delta"], c2=alg["c2"])
            except ScheduleOverflow as exc:
                raise ConfigError("algorithm", str(exc)) from None
        if mode in ("pac", "error-scaling") and not math.isfinite(alg["budget"] / alg["delta"]):
            raise ConfigError("algorithm.delta", "is too small: the regularizer log(budget/delta) overflows")
        rounds = _rounds(alg)
        each = max(rounds, 1)  # a design-cert run still counts as one round per replication
        try:
            check_rounds(fields["replications"] * each, "rounds in all")
        except ScheduleOverflow as exc:
            raise ConfigError("replications", f"{fields['replications']} of {each} rounds each: {exc}") from None
        if env.shift.kind == "custom" and env.shift.table.shape[0] < rounds:
            raise ConfigError(
                "environment.shift.table", f"has {env.shift.table.shape[0]} entries for a run of {rounds} rounds"
            )
        _check_sums(env, fields["environment"], fields["replications"], rounds, alg.get("delta"))
        if mode == "regret":
            # the largest dim an anchored certificate can have: phase_length grows with it, so no phase 1 is longer
            try:
                phase_length(1, min(env.d, env.K - 1), env.K, alg["delta"], alg["c2"], alg["c3"], alg["schedule"])
            except ScheduleOverflow as exc:
                raise ConfigError("algorithm", str(exc)) from None
        return cls(**{**fields, "algorithm": alg}, env=env, written=written)

    @functools.cached_property
    def betas(self) -> np.ndarray:
        """``regularizer(t, delta)`` for t = 1..budget, read-only: the regularizers of a pure mode's per-step e_t."""
        budget, delta = self.algorithm["budget"], self.algorithm["delta"]
        table = np.fromiter((regularizer(t, delta) for t in range(1, budget + 1)), float, count=budget)
        table.setflags(write=False)
        return table


def _check_sums(env: Environment, spec: dict, replications: int, rounds: int, delta: float | None) -> None:
    """ConfigError naming the field of the largest term when a sum that a run forms may overflow.

    ``spec`` is the environment's object, ``rounds`` the rounds of one of the
    ``replications`` (0: design-cert, which sums nothing).  No sum adds more terms than the rounds of all
    replications: a phase's sums of x~x~' and x~r, whose centered features
    have norm at most 2 max |x_i|, ``compute_metrics``' running sums of the
    same, cum_regret, whose terms are at most 2 max |x_i theta|, and the sums
    of the mean columns over replications.  A reward is at most
    max |x_i theta| + max |nu_t| + the noise's largest draw.  The features
    are also too large when the smallest regularizer of a run, log(1/delta),
    is below the rounding unit 2^-52 of the largest Gram entry one replication
    can form, rounds (2 max |x_i|)^2: its ridge systems may be singular.
    """
    x = env.features.features
    features = "environment.features" if spec.get("path") is None else "environment.path"
    terms = {
        features: 2 * math.sqrt(np.einsum("ij,ij->i", x, x).max()),  # no K x d temporary
        "environment.mu" if spec["kind"] == "mab" else "environment.theta": (
            float(np.nan_to_num(np.abs(env.values), nan=math.inf, posinf=math.inf).max())  # x theta: inf - inf is NaN
        ),
        "environment.shift": shift_bound(env.shift, rounds),
        "environment.noise": env.noise.largest,
    }
    spread, value, shift, noise = terms.values()
    total = replications * rounds
    if total and not math.isfinite(total * (spread * spread + spread * (value + shift + noise) + 2 * value)):
        name = max(terms, key=terms.get)
        raise ConfigError(name, f"gives terms up to {terms[name]:.3g}: sums over {total} rounds may overflow")
    if rounds and rounds * spread * spread * 2.0**-52 >= -math.log(delta):
        raise ConfigError(
            features,
            f"has norms up to {spread / 2:.3g}: over {rounds} rounds the Gram matrix outgrows the regularizer "
            f"log(1/delta) = {-math.log(delta):.3g} in double precision",
        )


def build_environment(spec: dict) -> Environment:
    """The Environment of ``spec``, resolved by ``_ENVIRONMENT``'s table for its kind.

    Each constructor runs under ``naming`` the field it reads: ``gap``, ``mu``,
    ``features`` or ``path``, ``theta``, ``shift`` or ``noise``.
    """
    kind = check_member(spec.get("kind"), "environment.kind", tuple(_ENVIRONMENT))  # it picks the table
    given = _resolve(spec, _ENVIRONMENT[kind], "environment.")
    if kind == "gap_instance":
        with naming("environment.gap"):
            env = make_gap_instance(given["d"], given["K"], given["gap"], given["seed"])
    elif kind == "mab":
        with naming("environment.mu"):
            env = make_mab_embedding(given["mu"], given["seed"])
    else:
        path, rows = given["path"], given["features"]
        if (path is None) == (rows is None):
            problem = "missing field" if path is None else "cannot be given with environment.path"
            raise ConfigError("environment.features", problem)
        feats = _arms("environment.features" if path is None else "environment.path", rows, path)
        with naming("environment.theta"):
            env = Environment(features=feats, theta_star=given["theta"], rng_seed=given["seed"])
    for name, make, keys in (("shift", ShiftSpec, SHIFT_KEYS), ("noise", NoiseSpec, NOISE_KEYS)):
        _check_keys(given[name], [f.name for f in dataclasses.fields(make)], f"environment.{name}.")
        with naming(f"environment.{name}"):
            setattr(env, name, make(**given[name]))  # a key left out takes the dataclass's default
        _check_keys(given[name], keys[getattr(env, name).kind], f"environment.{name}.")
    return env


def _replication_task(cfg: ExperimentConfig, rep: int, means: np.ndarray, summaries: list):
    """Run replication ``rep`` and yield its ``trajectory.csv`` columns a block at a time (``_trajectory_blocks``).

    Used inline, and through ``_pooled_task`` in worker processes.  Its
    mean columns are added into ``means``, and once its last block is taken,
    its ``summary.csv`` cells, by column name, are appended to ``summaries``.
    """
    env, alg = cfg.env, cfg.algorithm
    seed = cfg.base_seed + rep
    greedy = None
    if cfg.mode == "regret":
        record = run_sbe(env, SbeConfig(**alg), run_seed=seed)
        success = record.declared_best == env.best_arm
    else:
        _, greedy, record = run_pure_exploration(env, alg["budget"], alg["delta"], run_seed=seed)
        value_gap = float(env.values[env.best_arm] - env.values[greedy])
        success = value_gap <= alg["epsilon"] if alg["epsilon"] is not None else greedy == env.best_arm
    final_regret = yield from _trajectory_blocks(record, env, cfg.betas if record.kind == "pure" else None, rep, means)
    summaries.append({
        "replication": rep,
        "seed": seed,
        "final_regret": final_regret,
        "declared_best": _nullable(record.declared_best),
        "declared_at": _nullable(record.declared_at),
        "greedy_arm": _nullable(greedy),
        "success": int(success),
    })


def _trajectory_blocks(record: RunRecord, env: Environment, betas, rep: int, means: np.ndarray):
    """Yield replication ``rep``'s ``trajectory.csv`` columns of ``record`` a block at a time; return its final regret.

    Each block's cum_regret, e_t and sqrt_t_e_t, the columns that
    ``trajectory_mean.csv`` averages, are added into ``means`` (3 x steps).
    """
    reps = np.broadcast_to(np.int64(rep), _WRITE_BLOCK)
    stop = 0
    for tb in metric_blocks(record, env, betas, _WRITE_BLOCK):
        start, stop = stop, stop + tb.t.size
        for total, column in zip(means[:, start:stop], (tb.cum_regret, tb.e_t, tb.sqrt_t_e_t)):
            total += column  # in place in a row view: no copy back, as means[i, a:b] += would make
        yield (
            tb.t, reps[: stop - start], tb.phase, tb.arm, tb.reward, tb.inst_regret, tb.cum_regret, tb.e_t,
            tb.sqrt_t_e_t, tb.active_size,
        )
    return float(tb.cum_regret[-1])


def _trajectory_ranges(cfg: ExperimentConfig) -> tuple:
    """A range of each int column of ``trajectory.csv``, for ``cells.rows``: a phase index is at most the rounds."""
    n, k = _rounds(cfg.algorithm), cfg.env.K
    return (1, n), (0, cfg.replications - 1), (0, n), (0, k - 1), None, None, None, None, None, (1, k)


def _sums(rounds: int) -> np.ndarray:
    """Zeros to add the mean columns of replications of ``rounds`` rounds into (3 x rounds), in index order.

    They are -0.0, which + leaves every value as it is, -0.0 included.
    Summing R replications in index order and dividing by R once gives the
    bits of ``np.mean(stacked, axis=0)``, which also adds row after row.
    """
    return np.full((3, rounds), -0.0)


# in a pool worker process: the config of the run it serves, set once by
# ``_start_worker``; the process ends with the run's pool
_worker_run = None


def _start_worker(cfg: ExperimentConfig) -> None:
    """Pool initializer: keep the run's config for each replication this worker runs.

    It reaches the worker once, not with every task, and so do its
    environment and the design ``deo`` keeps on the environment's features;
    the worker's replications share that design and the config's ``betas``,
    as inline replications do.
    """
    global _worker_run
    _worker_run = cfg


def _pooled_task(rep: int):
    """``_replication_task`` of replication ``rep`` for a worker process.

    Its trajectory rows go to its own part file (``_trajectory_part``), one
    block at a time, and then its mean columns, as the float64 bytes of its
    ``_sums``, to another (``_sums_part``), each written as ``_replacing``
    writes a file; only its summary comes back.
    """
    cfg = _worker_run
    means, summaries = _sums(_rounds(cfg.algorithm)), []
    blocks = _replication_task(cfg, rep, means, summaries)
    with _replacing(_trajectory_part(cfg, rep)) as write:  # an OSError of the replication's own passes through
        for text in _stream_rows(TRAJECTORY_LINE, blocks, _trajectory_ranges(cfg)):
            write(text)
    with _replacing(_sums_part(cfg, rep), binary=True) as write:
        write(means)
    return summaries[0]


def _trajectory_part(cfg: ExperimentConfig, rep: int) -> Path:
    """Where a worker writes the trajectory rows of replication ``rep``."""
    return Path(cfg.output) / f"trajectory.csv.part.{rep}"


def _sums_part(cfg: ExperimentConfig, rep: int) -> Path:
    """Where a worker writes the mean columns of replication ``rep``, as the bytes of its ``_sums`` (3 x rounds)."""
    return Path(cfg.output) / f"mean_sums.part.{rep}"


def _add_part(sums: np.ndarray, path: Path) -> None:
    """Add the mean columns in ``path`` (``_sums_part``) into ``sums``, row by row, ``_WRITE_BLOCK`` cells at a time."""
    with open(path, "rb") as fh:
        for row in sums:
            for s in range(0, row.size, _WRITE_BLOCK):
                total = row[s : s + _WRITE_BLOCK]
                total += np.frombuffer(fh.read(total.nbytes))


def _nullable(value) -> str:
    """A summary cell that may be absent: an integer's text, or empty."""
    return "" if value is None else str(int(value))


def _format_rows(line_format: str, columns):
    """Yield the rows of ``columns`` as ``line_format % row``, ``_WRITE_BLOCK`` rows a string (``cells.table_rows``)."""
    from . import cells  # its compile and tables take about 4 ms: only a run that writes rows loads it

    return cells.table_rows(line_format, columns, _WRITE_BLOCK)


def _stream_rows(line_format: str, blocks, ranges):
    """Yield the rows of each block of ``blocks`` as ``line_format % row``, a string per block (``cells.rows``)."""
    from . import cells

    return cells.rows(line_format, blocks, ranges)


@contextlib.contextmanager
def _writing(path: Path):
    """Turn an OSError raised in the block into IoError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def _replacing(path: Path, binary: bool = False):
    """A ``write(text)`` function for ``path``, or ``write(data)`` of bytes-like data if ``binary``.

    The text goes to a temporary name beside ``path``, renamed to ``path`` when
    the block completes, so a run that fails part way leaves no partial file
    (and an older file keeps its bytes).  An OSError from opening, writing,
    closing or renaming the file becomes IoError; any other error of the block
    passes through as raised.
    """
    part = path.with_name(path.name + ".part")
    with _writing(path):
        fh = open(part, "wb") if binary else open(part, "w", newline="")

    def write(data) -> None:
        with _writing(path):
            fh.write(data)

    try:
        yield write
        with _writing(path):
            fh.close()
            os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        with contextlib.suppress(OSError):
            part.unlink()
        raise


@contextlib.contextmanager
def _csv_file(path: Path, header):
    """``_replacing(path)``, with the ``header`` line written."""
    with _replacing(path) as write:
        write(",".join(header) + "\n")
        yield write


def _write_csv(path: Path, header, line_format: str, columns) -> None:
    """Write ``header``, then every row of the equal-length ``columns`` as ``line_format % row``."""
    with _csv_file(path, header) as write:
        for text in _format_rows(line_format, columns):
            write(text)


def _run_replications(cfg: ExperimentConfig, workers: int, write) -> tuple[np.ndarray, list]:
    """Run every replication, passing its trajectory rows to ``write`` in index order.

    Returns the sums of the replications' mean columns, added in index order
    (``_sums``), and their summaries.  Inline, each block of a replication's
    columns is formatted and written as soon as it is computed, by one
    ``cells.rows`` per replication, and a replication's record and writer
    buffer are dropped before the next starts (a buffer kept for the whole
    file was no faster).  In a pool, each worker
    gets ``cfg`` once (``_start_worker``) and a task is a replication index;
    each worker writes its rows to its own part file, which is appended and
    deleted in index order; at most 2 x ``workers`` replications are
    submitted and not yet appended.  Its mean columns come as a file too,
    added into the run's sums a block at a time and deleted (``_add_part``),
    so the parent holds its own sums and a block, never a replication's
    whole.  If the run fails, every part file is deleted.
    """
    summaries, sums = [], _sums(_rounds(cfg.algorithm))
    if workers == 1:
        ranges = _trajectory_ranges(cfg)
        for rep in range(cfg.replications):
            for text in _stream_rows(TRAJECTORY_LINE, _replication_task(cfg, rep, sums, summaries), ranges):
                write(text)
        return sums, summaries

    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only a run with a pool needs it

    reps = iter(range(cfg.replications))
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker, initargs=(cfg,)) as pool:
            submit = functools.partial(pool.submit, _pooled_task)
            pending = collections.deque(map(submit, itertools.islice(reps, 2 * workers)))
            for rep in range(cfg.replications):
                summary = pending.popleft().result()
                following = next(reps, None)
                if following is not None:
                    pending.append(submit(following))
                part = _trajectory_part(cfg, rep)
                with _writing(part):
                    with open(part, newline="") as fh:
                        for text in iter(functools.partial(fh.read, 1 << 20), ""):
                            write(text)
                    part.unlink()
                part = _sums_part(cfg, rep)
                with _writing(part):
                    _add_part(sums, part)
                    part.unlink()
                summaries.append(summary)
    except BaseException:
        # a failed run leaves no part file: the pool has closed, so no worker is still writing one
        for rep in range(cfg.replications):
            for part in (_trajectory_part(cfg, rep), _sums_part(cfg, rep)):
                with contextlib.suppress(OSError):
                    part.unlink()
        raise
    return sums, summaries


def _mean_blocks(sums: np.ndarray, replications: int):
    """``trajectory_mean.csv``'s columns a block at a time: t, and the sums, divided in place by ``replications``."""
    for s in range(0, sums.shape[1], _WRITE_BLOCK):
        means = sums[:, s : s + _WRITE_BLOCK]
        means /= replications
        yield np.arange(s + 1, s + means.shape[1] + 1), *means


def _manifest_config(cfg: ExperimentConfig) -> dict:
    """The config as written, except that an inline feature matrix is recorded as its shape and sha256.

    The digest is of the float64 bytes of the matrix the run used.  Written out,
    the entries would take json's pure-Python indenting encoder one line each.
    """
    if "features" not in cfg.environment:
        return cfg.written
    import hashlib  # loads OpenSSL's _hashlib, about 3.5 MB: importing the CLI needs neither

    x = np.ascontiguousarray(cfg.env.features.features, dtype=np.float64)
    digest = {"shape": list(x.shape), "sha256": hashlib.sha256(x).hexdigest()}
    return {**cfg.written, "environment": {**cfg.environment, "features": digest}}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute all replications of the configured experiment and write CSVs.

    Writes ``trajectory.csv`` (per-step rows, all replications),
    ``trajectory_mean.csv`` (per-t means across replications),
    ``summary.csv`` (one row per replication), and ``manifest.json``, which
    records the Python and numpy versions and the worker count picked.  Mode
    ``design-cert`` instead writes ``certificate.csv``.  Returns a small dict
    of paths and aggregate results.
    """
    import sys  # loaded with the interpreter: only the name is bound here
    env, alg = cfg.env, cfg.algorithm
    out = Path(cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}")

    manifest = {
        "version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "mode": cfg.mode,
        "algorithm": alg,
        "config": _manifest_config(cfg),
        "seeds": [],  # each replication's, read from its summary when all have run
        "assumption_audit": assumption_audit(env, horizon=_rounds(alg)),
        "created_unix": time.time(),
    }

    if cfg.mode == "design-cert":
        policy, cert = deo(env.features, anchor=alg["anchor"], fw_tol=alg["fw_tol"])
        cert_row = (cert.max_anchor_norm, cert.max_centered_norm, cert.support_size, cert.dim)
        _write_csv(
            out / "certificate.csv",
            ("max_anchor_norm", "max_centered_norm", "support_size", "dim"),
            "%.17g,%.17g,%d,%d\n",
            [np.array([v]) for v in cert_row],
        )
        probs = policy.probabilities
        _write_csv(out / "policy.csv", ("arm_index", "probability"), "%d,%.17g\n", (np.arange(probs.size), probs))
        _write_manifest(out / "manifest.json", manifest)
        return {"certificate": cert, "policy": policy, "output": str(out)}

    cpus = os.cpu_count() or 1
    workers = manifest["workers"] = min(cfg.workers or cpus, cpus, cfg.replications)
    with _csv_file(out / "trajectory.csv", TRAJECTORY_COLUMNS) as write:
        sums, summaries = _run_replications(cfg, workers, write)
    with _csv_file(out / "trajectory_mean.csv", MEAN_COLUMNS) as write:
        for text in _stream_rows(MEAN_LINE, _mean_blocks(sums, cfg.replications), ((1, sums.shape[1]),) + (None,) * 3):
            write(text)

    with _csv_file(out / "summary.csv", SUMMARY_COLUMNS) as write:
        write("".join(SUMMARY_LINE % tuple(s[c] for c in SUMMARY_COLUMNS) for s in summaries))
    manifest["seeds"] = [s["seed"] for s in summaries]
    _write_manifest(out / "manifest.json", manifest)
    return {
        "output": str(out),
        "replications": cfg.replications,
        "successes": sum(s["success"] for s in summaries),
        "mean_final_regret": float(np.mean([s["final_regret"] for s in summaries])),
    }


def _write_manifest(path: Path, manifest: dict) -> None:
    """Write ``manifest`` as indented JSON, under a temporary name renamed when complete."""
    with _replacing(path) as write:
        write(json.dumps(manifest, indent=2, default=str) + "\n")
