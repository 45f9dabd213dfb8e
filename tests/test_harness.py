import collections
import concurrent.futures
import copy
import dataclasses
import hashlib
import inspect
import json
import math
import os
import pickle
import platform
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semibandit
import semibandit.cells as cells
import semibandit.design as design
import semibandit.harness as harness
import semibandit.metrics as metrics
import semibandit.sbe as sbe
from semibandit.cli import build_parser, main
from semibandit.design import DesignCertificate, DesignPolicy, FeatureSet, deo
from semibandit.environment import Environment, make_gap_instance
from semibandit.errors import ConfigError, ConvergenceError, InvalidSample, IoError
from semibandit.estimator import regularizer
from semibandit.metrics import metric_blocks
from semibandit.harness import (
    MEAN_LINE,
    MODES,
    SUMMARY_COLUMNS,
    SUMMARY_LINE,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_LINE,
    ExperimentConfig,
    build_environment,
    run_experiment,
)
from semibandit.sbe import PhaseState, RunRecord, SbeConfig, run_pure_exploration, run_sbe

from allocation import traced_peak


def base_config(tmp_path, **overrides):
    raw = {
        "mode": "regret",
        "environment": {
            "kind": "gap_instance",
            "d": 3,
            "K": 5,
            "gap": 0.5,
            "seed": 11,
            "shift": {"kind": "sine"},
            "noise": {"kind": "gaussian", "scale": 1.0},
        },
        "algorithm": {"delta": 0.05, "horizon": 2_000, "c2": 1.0},
        "replications": 2,
        "base_seed": 100,
        "output": str(tmp_path / "out"),
        "workers": 1,
    }
    raw.update(overrides)
    return raw


def log_table(n, delta):
    """``regularizer(t, delta)`` for t = 1..n: the betas of a pure record of n steps, as ``ExperimentConfig.betas``."""
    return np.array([regularizer(t, delta) for t in range(1, n + 1)])


def spy_pool(monkeypatch) -> dict:
    """Replace the process pool by one that runs each task in this process when submitted.

    The pool's initializer runs once, when the pool is made, as it would in a
    single worker; what it sets in ``harness`` is restored after the test.
    The initializer's and each task's arguments go through pickle, as they
    would to a worker process.
    Returns what it records: the pool sizes asked for, the tasks submitted, and
    the largest number of futures submitted and not yet asked for a result.
    """
    seen = {"sizes": [], "submitted": 0, "outstanding": 0, "peak": 0}

    class SpyFuture:
        def __init__(self, fn, args):
            try:
                self.value, self.error = fn(*pickle.loads(pickle.dumps(args))), None
            except Exception as exc:
                self.value, self.error = None, exc

        def result(self):
            seen["outstanding"] -= 1
            if self.error is not None:
                raise self.error
            return self.value

    class SpyPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            seen["sizes"].append(max_workers)
            if initializer is not None:
                initializer(*pickle.loads(pickle.dumps(initargs)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            seen["submitted"] += 1
            seen["outstanding"] += 1
            seen["peak"] = max(seen["peak"], seen["outstanding"])
            return SpyFuture(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(harness, "_worker_run", None)
    return seen


def features_env(**extra):
    """Three arms in the plane, the kind of environment the CLI reads from a file."""
    env = {"kind": "features", "features": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0]], "theta": [1.0, 0.0]}
    env.update(extra)
    return env


# configs that validation must reject (exit 2) instead of failing mid-run or
# running with a wrong type; a None value removes the field
BAD_CONFIGS = {
    "missing-mode": {"mode": None},
    "algorithm-not-object": {"algorithm": ["horizon"]},
    "output-not-string": {"output": 5},
    # a path no file can have: validate passed it before, and the run ended in a traceback from mkdir
    "nul-in-output": {"output": "a\u0000b"},
    # Path("") is the working directory: a run wrote its CSVs and manifest there and exited 0
    "empty-output": {"output": ""},
    "float-horizon": {"algorithm": {"horizon": 1e3}},
    "bool-horizon": {"algorithm": {"horizon": True}},
    "bool-budget": {"mode": "error-scaling", "algorithm": {"budget": True}},
    "float-budget": {"mode": "error-scaling", "algorithm": {"budget": 300.0}},
    "string-epsilon": {"mode": "pac", "algorithm": {"epsilon": "x"}},
    "zero-epsilon": {"mode": "pac", "algorithm": {"epsilon": 0}},
    "string-c2": {"mode": "pac", "algorithm": {"epsilon": 0.25, "c2": "x"}},
    "one-arm": {"environment": {"kind": "features", "features": [[0.5, 0.0]], "theta": [1.0, 0.0]}},
    "bool-workers": {"workers": True},
    "bool-replications": {"replications": True},
    "float-base-seed": {"base_seed": 1.5},
    "bai-mode": {"mode": "bai"},
    "zero-fw-tol": {"algorithm": {"horizon": 2000, "fw_tol": 0}},
    "infinite-fw-tol": {"algorithm": {"horizon": 2000, "fw_tol": math.inf}},
    "bool-fw-tol": {"algorithm": {"horizon": 2000, "fw_tol": True}},
    "infinite-c2": {"algorithm": {"horizon": 2000, "c2": math.inf}},
    "nan-c3": {"algorithm": {"horizon": 2000, "c3": math.nan}},
    "phase-1-schedule-overflow": {"algorithm": {"horizon": 2000, "delta": 1e-320}},
    "shift-not-object": {"environment": features_env(shift="sine")},
    "string-noise-scale": {"environment": features_env(noise={"scale": "x"})},
    "unknown-noise-kind": {"environment": features_env(noise={"kind": "laplace"})},
    "design-cert-zero-fw-tol": {"mode": "design-cert", "algorithm": {"fw_tol": 0}},
    "design-cert-string-anchor": {"mode": "design-cert", "algorithm": {"anchor": "a"}},
    "design-cert-anchor-out-of-range": {"mode": "design-cert", "algorithm": {"anchor": 9}},
    "float-environment-seed": {"environment": features_env(seed=1.5)},
    "bool-environment-seed": {"environment": features_env(seed=True)},
    # numpy's generator takes no negative seed: blamed on environment.gap before, the field whose constructor ran
    "negative-gap-instance-seed": {"environment": {"kind": "gap_instance", "d": 3, "K": 5, "gap": 0.2, "seed": -1}},
    "short-custom-table": {
        "environment": features_env(shift={"kind": "custom", "table": [0.0] * 199}),
        "algorithm": {"horizon": 200},
    },
    "underflowing-epsilon": {"mode": "pac", "algorithm": {"epsilon": 1e-300}},
    "string-shift-constant": {"environment": features_env(shift={"kind": "constant", "constant": "a"})},
    "nan-shift-constant": {"environment": features_env(shift={"kind": "constant", "constant": math.nan})},
    "2d-custom-table": {
        "environment": features_env(shift={"kind": "custom", "table": [[0.0]] * 200}),
        "algorithm": {"horizon": 200},
    },
    "nan-in-custom-table": {
        "environment": features_env(shift={"kind": "custom", "table": [0.0] * 199 + [math.nan]}),
        "algorithm": {"horizon": 200},
    },
    "nan-noise-scale": {"environment": features_env(noise={"scale": math.nan})},
    "infinite-noise-scale": {"environment": features_env(noise={"scale": math.inf})},
    "overflowing-uniform-noise-scale": {"environment": features_env(noise={"kind": "bounded_uniform", "scale": 1e308})},
    "nan-theta": {"environment": features_env(theta=[math.nan, 0.0])},
    "nan-mu": {"environment": {"kind": "mab", "mu": [0.5, math.nan, 0.1]}},
    "string-clip-to-unit": {
        "environment": features_env(shift={"kind": "constant", "constant": 3.0, "clip_to_unit": "false"})
    },
    "huge-int-shift-constant": {"environment": features_env(shift={"kind": "constant", "constant": 10**400})},
    "bool-shift-constant": {"environment": features_env(shift={"kind": "constant", "constant": True})},
    "bool-noise-scale": {"environment": features_env(noise={"scale": True})},
    "bool-gap": {"environment": {"kind": "gap_instance", "d": 3, "K": 5, "gap": True}},
    "bool-pac-c2": {"mode": "pac", "algorithm": {"epsilon": 0.25, "c2": True}},
    "negative-pac-c2": {"mode": "pac", "algorithm": {"epsilon": 0.25, "c2": -1}},
    "bool-error-scaling-c2": {"mode": "error-scaling", "algorithm": {"budget": 300, "c2": True}},
    "zero-error-scaling-c2": {"mode": "error-scaling", "algorithm": {"budget": 300, "c2": 0}},
    "huge-int-pac-c2": {"mode": "pac", "algorithm": {"epsilon": 0.25, "c2": 10**400}},
    "misspelled-algorithm-key": {"algorithm": {"horizon": 200, "detla": 1e-9}},
    "misspelled-environment-key": {"environment": features_env(sede=3)},
    "misspelled-noise-key": {"environment": features_env(noise={"kind": "gaussian", "scael": 2.0})},
    "misspelled-shift-key": {"environment": features_env(shift={"kind": "sine", "constnat": 3})},
    "pac-fw-tol": {"mode": "pac", "algorithm": {"epsilon": 0.25, "fw_tol": -1}},
    # round counts past sbe._MAX_ROUNDS, given or worked out
    "huge-horizon": {"algorithm": {"horizon": 10**30}},
    "horizon-past-cap": {"algorithm": {"horizon": 2**59 + 1}},
    "huge-error-scaling-budget": {"mode": "error-scaling", "algorithm": {"budget": 10**30}},
    "huge-pac-budget": {"mode": "pac", "algorithm": {"epsilon": 0.25, "budget": 10**30}},
    "tiny-epsilon": {"mode": "pac", "algorithm": {"epsilon": 1e-150}},
    "phase-1-past-cap": {"algorithm": {"horizon": 2000, "c2": 1e15}},
    "shift-pair-list": {"environment": features_env(shift=[["kind", "constant"], ["constant", 0.5]])},
    "noise-pair-list": {"environment": features_env(noise=[["kind", "none"]])},
    # found only at run time before: a gaussian draw, or the design's squared distances, past the largest double
    "overflowing-gaussian-noise-scale": {"environment": features_env(noise={"kind": "gaussian", "scale": 1e308})},
    "huge-feature-entries": {"environment": features_env(features=[[1e308, 0.0], [0.0, 1e308], [-1e308, 0.0]])},
    # entries within FeatureSet's bound whose differences are past it: the sums blame them before any design forms them
    "huge-feature-differences": {"environment": features_env(features=[[4e153, 0.0], [0.0, 1.0], [-4e153, 0.0]])},
    # replications x rounds past sbe._MAX_ROUNDS: the run would hold more rounds than any one may
    "huge-replications": {"replications": 10**24},
    "replications-times-horizon-past-cap": {"replications": 2**40, "algorithm": {"horizon": 2**20}},
    "design-cert-huge-replications": {"mode": "design-cert", "algorithm": {}, "replications": 2**59 + 1},
    # finite draws whose sums over the run's rounds overflow: found only at run time (exit 3) before
    "overflowing-noise-sums": {"environment": features_env(noise={"kind": "gaussian", "scale": 1.4e307})},
    "overflowing-theta-sums": {"environment": features_env(theta=[1e308, 0.0])},
    # a Gram matrix that outgrows the regularizer: a ridge system singular at run time (exit 3) before
    "singular-ridge-features": {"environment": features_env(features=[[1e9, 0.0], [0.0, 1e9], [-1e9, 0.0]])},
    # a delta so small that log(budget/delta) is infinite: a run exited 3 before, after numpy warnings
    "infinite-regularizer": {"mode": "error-scaling", "algorithm": {"budget": 300, "delta": 1e-320}},
    # each names its field through the environment's table or its constructor's guard; blamed on bare
    # "environment" before, with the text of a Python error
    "zero-d": {"environment": {"kind": "gap_instance", "d": 0, "K": 5, "gap": 0.2}},
    "bool-d": {"environment": {"kind": "gap_instance", "d": True, "K": 5, "gap": 0.2}},
    "string-d": {"environment": {"kind": "gap_instance", "d": "3", "K": 5, "gap": 0.2}},
    "float-K": {"environment": {"kind": "gap_instance", "d": 3, "K": 5.0, "gap": 0.2}},
    "bool-K": {"environment": {"kind": "gap_instance", "d": 3, "K": True, "gap": 0.2}},
    "one-K": {"environment": {"kind": "gap_instance", "d": 3, "K": 1, "gap": 0.2}},
    "large-gap": {"environment": {"kind": "gap_instance", "d": 3, "K": 5, "gap": 3}},
    # a gap below 2 that no draw realizes (the best arm would leave the unit ball): GenerationError after 10^4
    "unrealizable-gap": {"environment": {"kind": "gap_instance", "d": 2, "K": 3, "gap": 1.9}},
    "string-mu": {"environment": {"kind": "mab", "mu": "ab"}},
    "short-theta": {"environment": features_env(theta=[1.0, 0.0, 0.0])},
    "missing-gap": {"environment": {"kind": "gap_instance", "d": 3, "K": 5}},
    "missing-theta": {"environment": {"kind": "features", "features": [[0.5, 0.0], [0.0, 0.5]]}},
    "missing-features": {"environment": {"kind": "features", "theta": [1.0, 0.0]}},
    # all arms identical: validate passed them before, and the run exited 3
    "identical-arms": {"environment": features_env(features=[[0.3, 0.4]] * 3)},
    # a bool or a string is not a number in an array either: each ran as 0.0, 1.0 or the string's number before
    "string-theta": {"environment": features_env(theta=["1.0", "0.0"])},
    "bool-theta": {"environment": features_env(theta=[True, False])},
    "string-feature-row": {"environment": features_env(features=[["0.5", "0.0"], [0.0, 0.5], [-0.5, 0.0]])},
    "numeric-string-mu": {"environment": {"kind": "mab", "mu": ["0.1", "0.5"]}},
    "bool-mu": {"environment": {"kind": "mab", "mu": [True, False]}},
    "bool-custom-table": {
        "environment": features_env(shift={"kind": "custom", "table": [True] * 200}),
        "algorithm": {"horizon": 200},
    },
    "string-custom-table": {
        "environment": features_env(shift={"kind": "custom", "table": ["1"] * 200}),
        "algorithm": {"horizon": 200},
    },
}


# the columns of a metric block: trajectory.csv's but the replication, in its order
METRIC_COLUMNS = tuple(name for name in TRAJECTORY_COLUMNS if name != "replication")


def metric_columns(record, env, betas=None):
    """The per-step columns of ``record`` by name: its blocks of ``harness._WRITE_BLOCK`` steps, each column joined."""
    blocks = metric_blocks(record, env, betas, harness._WRITE_BLOCK)
    return types.SimpleNamespace(**dict(zip(METRIC_COLUMNS, map(np.concatenate, zip(*blocks)))))


def manual_record(env, arms, phases=(), kind="sbe", declared=None, declared_at=None):
    arms = np.asarray(arms, dtype=np.int64)
    return RunRecord(
        arm=arms,
        reward=env.values[arms].astype(float),
        phases=list(phases),
        declared_best=declared,
        declared_at=declared_at,
        kind=kind,
    )


class TestComputeMetrics:
    def test_always_best_zero_regret(self):
        env = make_gap_instance(3, 5, 0.5, seed=1)
        record = manual_record(env, [env.best_arm] * 10)
        table = metric_columns(record, env)
        assert np.all(table.inst_regret == 0.0)
        assert np.all(table.cum_regret == 0.0)

    def test_alternating_regret(self):
        env = make_gap_instance(3, 5, 0.5, seed=1)
        runner_up = int(np.argsort(env.values)[-2])
        arms = [env.best_arm, runner_up] * 5
        table = metric_columns(manual_record(env, arms), env)
        assert np.isclose(table.cum_regret[-1], 2.5)

    def test_perfect_estimate_zero_error(self, monkeypatch):
        env = make_gap_instance(3, 5, 0.5, seed=2)
        policy, cert = deo(env.features)
        phase = PhaseState(
            index=1,
            active=tuple(range(env.K)),
            epsilon=0.5,
            length=4,
            policy=policy,
            certificate=cert,
            anchor=0,
            taken=4,
            theta_hat=env.theta_star.copy(),
        )
        record = manual_record(env, [0, 1, 2, 3, 0, 1, 2, 3], phases=[phase])
        for block in (3, 2048):  # a block of 3 steps meets both segments
            monkeypatch.setattr(harness, "_WRITE_BLOCK", block)
            table = metric_columns(record, env)
            assert np.all(np.isnan(table.e_t[:4]))  # before the first snapshot
            assert np.all(table.e_t[4:] == 0.0)

    @pytest.mark.parametrize("block", [3, 512])
    def test_pure_error_past_the_largest_double_raises(self, monkeypatch, block):
        # each reward is finite, but the batched ridge sums of x~ r overflow:
        # e_t is reported as an InvalidSample, not written as inf or NaN
        env = make_gap_instance(3, 5, 0.5, seed=2)
        policy, cert = deo(env.features)
        arms = np.arange(8) % env.K
        phase = PhaseState(1, tuple(range(env.K)), math.nan, 8, policy, cert, 0, np.zeros(env.d), taken=8)
        monkeypatch.setattr(metrics, "_BLOCK", block)
        finite = RunRecord(arm=arms, reward=env.values[arms], phases=[phase], kind="pure")
        betas = log_table(8, 0.1)
        assert np.isfinite(metric_columns(finite, env, betas).e_t).all()
        huge = RunRecord(arm=arms, reward=np.full(8, 1e308), phases=[phase], kind="pure")
        with warnings.catch_warnings():  # the error is the one report: NumPy's overflow warnings stay inside
            warnings.simplefilter("error")
            with pytest.raises(InvalidSample, match="^the ridge estimate is not finite"):
                metric_columns(huge, env, betas)

    def test_pure_error_of_a_finite_estimate_past_the_largest_double_raises(self):
        # theta_hat is finite, but z (theta_hat - theta*) overflows on the arm of norm 1e150 that the policy never
        # plays: an InvalidSample, and no warning of the overflow
        env = Environment(features=FeatureSet([[0, 0], [1, 0], [0, 1], [1e150, 1e150]]), theta_star=[0, 0])
        policy = DesignPolicy([0.5, 0.25, 0.25, 0])
        phase = PhaseState(1, tuple(range(4)), math.nan, 8, policy, None, 0, np.zeros(2), taken=8)
        record = RunRecord(arm=np.arange(8) % 2 + 1, reward=np.full(8, 1e300), phases=[phase], kind="pure")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSample, match="^the ridge estimate is not finite"):
                metric_columns(record, env, log_table(8, 0.1))

    def test_sqrt_column_identity(self):
        env = make_gap_instance(3, 6, 0.4, seed=3)
        record = run_sbe(env, SbeConfig(delta=0.1, horizon=3_000), run_seed=0)
        table = metric_columns(record, env)
        mask = ~np.isnan(table.e_t)
        lhs = table.sqrt_t_e_t[mask]
        rhs = np.sqrt(table.t[mask]) * table.e_t[mask]
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_pure_exploration_per_step_error(self):
        env = make_gap_instance(3, 5, 0.4, seed=4)
        _, _, record = run_pure_exploration(env, 200, 0.1, run_seed=0)
        table = metric_columns(record, env, log_table(record.steps, 0.1))
        assert not np.isnan(table.e_t).any()
        # spot-check one step against a direct reconstruction
        t_check = 150
        x = env.features.features
        xbar = record.phases[0].policy.probabilities @ x
        centered = x[record.arm[:t_check]] - xbar
        gram = centered.T @ centered
        moment = centered.T @ record.reward[:t_check]
        theta_hat = np.linalg.solve(gram + math.log(t_check / 0.1) * np.eye(env.d), moment)
        expected = np.abs((x - x[0]) @ (theta_hat - env.theta_star)).max()
        assert np.isclose(table.e_t[t_check - 1], expected, rtol=1e-8)

    @pytest.mark.parametrize("block", [7, 997, 2048])
    @pytest.mark.parametrize("d", [2, 5, 7])
    def test_pure_exploration_error_matches_stepwise_solves(self, monkeypatch, block, d):
        # the batched e_t equals a ridge solve after every step, bit for bit, the
        # running sums carried across the edge of two blocks of 1,000 steps
        env = make_gap_instance(d, 9, 0.3, seed=d)
        _, _, record = run_pure_exploration(env, 1_500, 0.1, run_seed=d)
        monkeypatch.setattr(metrics, "_BLOCK", block)
        monkeypatch.setattr(harness, "_WRITE_BLOCK", 1_000)
        table = metric_columns(record, env, log_table(record.steps, 0.1))
        x = env.features.features
        xbar = record.phases[0].policy.probabilities @ x
        gram, moment, expected = np.zeros((d, d)), np.zeros(d), []
        for i in range(record.steps):
            xt = x[record.arm[i]] - xbar
            gram += np.outer(xt, xt)
            moment += xt * record.reward[i]
            theta_hat = np.linalg.solve(gram + math.log((i + 1) / 0.1) * np.eye(d), moment)
            expected.append(np.abs((x - x[0]) @ (theta_hat - env.theta_star)).max())
        assert table.e_t.tobytes() == np.array(expected).tobytes()

    def test_pure_record_holds_no_copy_of_its_rows(self):
        # the metrics of a pure record hold no n x d array: x~ and x~r are formed _BLOCK steps at a time.  Taking
        # its blocks holds two blocks' columns (the one taken and the next), z and a few K x d arrays, and a
        # _BLOCK's stacks of d x d systems (about 3.1 of them); one n x d array (1.3 stacks here) fails
        n, d, k = 50_000, 20, 20
        env = make_gap_instance(d, k, 0.2, seed=0)
        _, _, record = run_pure_exploration(env, n, 0.1)
        betas = log_table(n, 0.1)
        _, peak = traced_peak(lambda: collections.deque(metric_blocks(record, env, betas, harness._WRITE_BLOCK), 0))
        assert peak <= 2 * 9 * harness._WRITE_BLOCK * 8 + 16 * k * d * 8 + 4 * metrics._BLOCK * d * d * 8

    @pytest.mark.parametrize("mode, rounds", [("regret", 30_000), ("error-scaling", 6_000)])
    def test_streamed_replication_peak_does_not_grow_with_the_horizon(self, tmp_path, mode, rounds):
        # a replication's metrics and its trajectory text, a block at a time, the declared arm's tail drawn in
        # them: at 4x the rounds the traced peak moves by less than one block's columns.  The record, the betas
        # and the mean sums are made before
        peaks = []
        for n in (rounds, 4 * rounds):
            algorithm = {"horizon": n, "delta": 0.05} if mode == "regret" else {"budget": n, "delta": 0.1}
            cfg = ExperimentConfig.from_dict(base_config(tmp_path, mode=mode, algorithm=algorithm, replications=1))
            if mode == "regret":
                record, betas = run_sbe(cfg.env, SbeConfig(**cfg.algorithm), run_seed=0), None
            else:
                record, betas = run_pure_exploration(cfg.env, n, 0.1, run_seed=0)[2], cfg.betas
            means = harness._sums(n)
            blocks = harness._trajectory_blocks(record, cfg.env, betas, 0, means)
            rows = harness._stream_rows(TRAJECTORY_LINE, blocks)
            peaks.append(traced_peak(collections.deque, rows, 0)[1])
            assert np.isfinite(means[0]).all() and record.steps == n
        assert abs(peaks[1] - peaks[0]) < len(TRAJECTORY_COLUMNS) * harness._WRITE_BLOCK * 8

    def test_log_table_made_once_and_read_only(self, tmp_path, monkeypatch):
        # the pure records of one run share one table of estimator.regularizer, ExperimentConfig.betas, made
        # once for the run; metric_blocks makes none, it reads the one given
        made = []
        monkeypatch.setattr(harness, "regularizer", lambda t, delta: made.append((t, delta)) or regularizer(t, delta))
        raw = base_config(tmp_path, mode="error-scaling", algorithm={"budget": 300, "delta": 0.1}, replications=3)
        cfg = ExperimentConfig.from_dict(raw)
        run_experiment(cfg)
        assert made == [(t, 0.1) for t in range(1, 301)]
        env = make_gap_instance(3, 6, 0.5, seed=5)
        record = run_pure_exploration(env, 300, 0.2, run_seed=0)[2]
        assert metric_columns(record, env, log_table(300, 0.2)).e_t.size == 300
        assert len(made) == 300
        assert cfg.betas.tolist() == [math.log(t / 0.1) for t in range(1, 301)]
        with pytest.raises(ValueError):
            cfg.betas[0] = 0.0

    @pytest.mark.parametrize(
        "make, tail",
        [
            # one arm is declared at step 1764 (2644 before the noise moved to one generator per run)
            (lambda env: run_sbe(env, SbeConfig(delta=0.1, horizon=6_000), run_seed=3), 6_000 - 1_764),
            (lambda env: run_sbe(env, SbeConfig(delta=0.1, horizon=500), run_seed=0), 0),  # cut inside phase 1
            (lambda env: run_pure_exploration(env, 300, 0.1, run_seed=1)[2], 0),
        ],
        ids=["declared", "truncated", "pure"],
    )
    def test_columns_match_stepwise_walk(self, monkeypatch, make, tail):
        # phase, arm, active_size and e_t, walking the steps one at a time: a step
        # belongs to the first phase not yet used up, its arm the record's, or else
        # to the declared arm's tail, and e_t is the last finished phase's error
        # (NaN before any)
        env = make_gap_instance(3, 6, 0.5, seed=5)
        record = make(env)
        assert record.steps - sum(ph.taken for ph in record.phases) == tail
        assert record.steps - record.arm.size == tail  # the record holds the phase rounds: the tail is a count
        x = env.features.features
        phase, arm, size, e_t = [], [], [], []
        done, used, snapshot = 0, 0, math.nan
        gram, moment = np.zeros((env.d, env.d)), np.zeros(env.d)
        for t in range(1, record.steps + 1):
            if done < len(record.phases) and used == record.phases[done].taken:
                ph = record.phases[done]
                snapshot = np.abs((x[list(ph.active)] - x[ph.anchor]) @ (ph.theta_hat - env.theta_star)).max()
                done, used = done + 1, 0
            if done < len(record.phases):
                used += 1
                phase.append(record.phases[done].index)
                arm.append(record.arm[t - 1])
                size.append(len(record.phases[done].active))
            else:
                phase.append(record.phases[-1].index)
                arm.append(record.declared_best)
                size.append(1)
            if record.kind == "pure":  # a ridge solve after every step, anchored at arm 0 over all arms
                xt = x[arm[-1]] - record.phases[0].policy.probabilities @ x
                gram += np.outer(xt, xt)
                moment += xt * record.reward[t - 1]
                theta_hat = np.linalg.solve(gram + math.log(t / 0.1) * np.eye(env.d), moment)
                snapshot = np.abs((x - x[0]) @ (theta_hat - env.theta_star)).max()
            e_t.append(snapshot)
        for block in (7, 2048):  # blocks of 7 steps meet every segment edge
            monkeypatch.setattr(harness, "_WRITE_BLOCK", block)
            table = metric_columns(record, env, log_table(record.steps, 0.1))
            assert table.phase.tolist() == phase
            assert table.arm.tolist() == arm
            assert table.active_size.tolist() == size
            assert table.e_t.tobytes() == np.array(e_t).tobytes()
            assert np.isnan(table.e_t[0]) == (record.kind == "sbe")
            # cum_regret, continued from block to block, has the bits of one cumsum over the record
            assert table.cum_regret.tobytes() == np.cumsum(env.values[env.best_arm] - env.values[arm]).tobytes()

    def test_regret_monotone_and_total(self):
        env = make_gap_instance(3, 6, 0.4, seed=5)
        record = run_sbe(env, SbeConfig(delta=0.1, horizon=4_000), run_seed=1)
        table = metric_columns(record, env)
        assert np.all(np.diff(table.cum_regret) >= -1e-12)
        assert abs(table.cum_regret[-1] - table.inst_regret.sum()) <= 1e-9

    def test_two_passes_over_a_record_give_the_same_columns(self):
        # each pass draws the declared arm's tail from a noise stream of its own, resumed from the record's saved
        # state: two passes, one after the other or taken block by block side by side, give the same bytes
        env = make_gap_instance(3, 6, 0.5, seed=5)
        record = run_sbe(env, SbeConfig(delta=0.1, horizon=20_000), run_seed=3)
        assert record.steps - record.declared_at > 2 * harness._WRITE_BLOCK
        first = [getattr(metric_columns(record, env), name).tobytes() for name in METRIC_COLUMNS]
        assert [getattr(metric_columns(record, env), name).tobytes() for name in METRIC_COLUMNS] == first
        side_by_side = zip(*(metric_blocks(record, env, None, harness._WRITE_BLOCK) for _ in range(2)))
        for one, other in side_by_side:
            assert len(one) == len(METRIC_COLUMNS)
            assert [column.tobytes() for column in one] == [column.tobytes() for column in other]


class TestConfig:
    def test_valid(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        assert cfg.mode == "regret"

    def test_phase_one_rows_factored_once(self, tmp_path, monkeypatch):
        # from_dict sizes phase 1 by its rank bound, min(d, K - 1), and factors nothing: the one SVD is
        # phase 1's deo, on its anchored rows
        calls = []
        span_basis = design.span_basis
        monkeypatch.setattr(design, "span_basis", lambda x: calls.append(x.shape) or span_basis(x))
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        assert calls == []
        record = run_sbe(cfg.env, SbeConfig(delta=0.05, horizon=100), run_seed=0)  # cut inside phase 1
        assert len(record.phases) == 1 and record.phases[0].truncated
        assert calls == [(cfg.env.K - 1, cfg.env.d)]

    def test_unknown_field(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict(base_config(tmp_path, bogus=1))

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_dict(base_config(tmp_path, mode="explore"))

    def test_missing_horizon(self, tmp_path):
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig.from_dict(base_config(tmp_path, algorithm={"delta": 0.1}))

    def test_pac_needs_epsilon(self, tmp_path):
        raw = base_config(tmp_path, mode="pac", algorithm={"delta": 0.1})
        with pytest.raises(ConfigError, match="epsilon"):
            ExperimentConfig.from_dict(raw)

    def test_bad_replications(self, tmp_path):
        with pytest.raises(ConfigError, match="replications"):
            ExperimentConfig.from_dict(base_config(tmp_path, replications=0))

    def test_bad_environment_kind(self, tmp_path):
        raw = base_config(tmp_path)
        raw["environment"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="environment.kind"):
            ExperimentConfig.from_dict(raw)

    def test_features_environment(self):
        env = build_environment(
            {"kind": "features", "features": [[1.0, 0.0], [0.0, 0.5]], "theta": [0.8, 0.1]}
        )
        assert env.K == 2 and env.best_arm == 0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("horizon", True), ("horizon", 1.5), ("horizon", 0), ("horizon", 2**59 + 1), ("horizon", 10**30),
            ("delta", 0), ("delta", 1), ("delta", 2), ("delta", math.nan), ("c2", 0), ("c2", math.inf),
            ("c3", 0), ("c3", math.inf), ("fw_tol", 0), ("fw_tol", math.inf), ("schedule", "greedy"),
        ],
    )
    def test_library_and_config_reject_alike(self, tmp_path, key, value):
        # one check per regret key: SbeConfig and a config's algorithm block each name the key, with one message
        with pytest.raises(ConfigError) as library:
            SbeConfig(**{"horizon": 10, key: value})
        with pytest.raises(ConfigError) as config:
            ExperimentConfig.from_dict(base_config(tmp_path, algorithm={"horizon": 10, key: value}))
        assert library.value.field == key and config.value.field == f"algorithm.{key}"
        assert str(config.value) == f"algorithm.{library.value}"

    def test_bai_mode_folded_into_regret(self, tmp_path):
        # the regret summary already records declared_best, declared_at and success
        assert "bai" not in MODES
        with pytest.raises(ConfigError, match="regret"):
            ExperimentConfig.from_dict(base_config(tmp_path, mode="bai"))

    def test_mab_environment(self):
        env = build_environment({"kind": "mab", "mu": [0.2, 0.7]})
        assert env.best_arm == 1


class TestRunExperiment:
    def test_design_cert_golden(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "mode": "design-cert",
                "environment": {
                    "kind": "features",
                    "features": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    "theta": [0.6, 0.3],
                },
                "output": str(tmp_path / "gold"),
            }
        )
        result = run_experiment(cfg)
        cert = result["certificate"]
        assert cert.max_anchor_norm <= 2 * math.sqrt(2)
        golden = (  # sqrt(6) and sqrt(3), each correctly rounded
            "max_anchor_norm,max_centered_norm,support_size,dim\n"
            "2.4494897427831779,1.7320508075688772,3,2\n"
        )
        assert (tmp_path / "gold" / "certificate.csv").read_text() == golden
        assert (tmp_path / "gold" / "policy.csv").read_text() == (
            "arm_index,probability\n0,0.5\n1,0.25\n2,0.25\n"
        )

    def test_determinism(self, tmp_path):
        raw1 = base_config(tmp_path, output=str(tmp_path / "a"))
        raw2 = base_config(tmp_path, output=str(tmp_path / "b"))
        run_experiment(ExperimentConfig.from_dict(raw1))
        run_experiment(ExperimentConfig.from_dict(raw2))
        for name in ("trajectory.csv", "summary.csv", "trajectory_mean.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @staticmethod
    def counting_designs(monkeypatch) -> dict:
        """Count the calls to ``deo`` from phases and the ``g_optimal`` solves it starts."""
        calls = {"deo": 0, "g_optimal": 0}
        for module, name in ((sbe, "deo"), (design, "g_optimal")):
            fn = getattr(module, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_pure_exploration_solves_one_design_per_run(self, tmp_path, monkeypatch):
        # every replication asks deo for the design over all arms; the run solves it once
        calls = self.counting_designs(monkeypatch)
        raw = base_config(tmp_path, mode="error-scaling", algorithm={"budget": 200}, replications=3)
        run_experiment(ExperimentConfig.from_dict(raw))
        assert calls == {"deo": 3, "g_optimal": 1}

    def test_regret_solves_all_arms_once(self, tmp_path, monkeypatch):
        # every phase over all arms (each replication's first, and any that
        # eliminates nothing) shares the run's design; one over fewer solves its own
        calls = self.counting_designs(monkeypatch)
        actives = []
        run = harness.run_sbe

        def recording(env, cfg, run_seed):
            record = run(env, cfg, run_seed=run_seed)
            actives.extend(ph.active for ph in record.phases)
            return record

        monkeypatch.setattr(harness, "run_sbe", recording)
        run_experiment(ExperimentConfig.from_dict(base_config(tmp_path, replications=3)))
        fewer = [a for a in actives if len(a) < 5]
        assert calls["deo"] == len(actives)
        assert fewer and len(actives) - len(fewer) > 3  # an all-arms phase past some replication's first
        assert calls["g_optimal"] == 1 + len(fewer)

    def test_pool_worker_shares_designs(self, tmp_path, monkeypatch):
        # a worker gets the environment once, so its replications share its designs
        pool = spy_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        calls = self.counting_designs(monkeypatch)
        raw = base_config(tmp_path, mode="error-scaling", algorithm={"budget": 200}, replications=3, workers=2)
        run_experiment(ExperimentConfig.from_dict(raw))
        assert pool["sizes"] == [2] and pool["submitted"] == 3
        assert calls == {"deo": 3, "g_optimal": 1}

    def test_no_design_outlives_a_run(self, tmp_path, monkeypatch):
        # two runs of one config in one process: each solves its design
        calls = self.counting_designs(monkeypatch)
        raw = base_config(tmp_path, mode="error-scaling", algorithm={"budget": 200}, replications=2)
        for out in ("a", "b"):
            run_experiment(ExperimentConfig.from_dict({**raw, "output": str(tmp_path / out)}))
        assert calls == {"deo": 4, "g_optimal": 2}

    def test_worker_count_independence(self, tmp_path):
        raw1 = base_config(tmp_path, output=str(tmp_path / "w1"), workers=1)
        raw2 = base_config(tmp_path, output=str(tmp_path / "w2"), workers=2)
        run_experiment(ExperimentConfig.from_dict(raw1))
        run_experiment(ExperimentConfig.from_dict(raw2))
        for name in ("trajectory.csv", "trajectory_mean.csv", "summary.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    def test_schema(self, tmp_path):
        raw = base_config(tmp_path, output=str(tmp_path / "s"), replications=1)
        raw["algorithm"]["horizon"] = 300
        run_experiment(ExperimentConfig.from_dict(raw))
        header = (tmp_path / "s" / "trajectory.csv").read_text().splitlines()[0]
        assert header == ",".join(TRAJECTORY_COLUMNS)
        lines = (tmp_path / "s" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 300
        header = (tmp_path / "s" / "summary.csv").read_text().splitlines()[0]
        assert header == ",".join(SUMMARY_COLUMNS)
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["seeds"] == [100]
        assert manifest["mode"] == "regret"

    @pytest.mark.parametrize("mode, algorithm", [("regret", {"horizon": 3_000}), ("error-scaling", {"budget": 400})])
    def test_final_regret_is_sum_of_inst_regret(self, tmp_path, mode, algorithm):
        raw = base_config(tmp_path, mode=mode, algorithm=algorithm, replications=3, output=str(tmp_path / mode))
        run_experiment(ExperimentConfig.from_dict(raw))
        rows = [line.split(",") for line in (tmp_path / mode / "trajectory.csv").read_text().splitlines()[1:]]
        summary = (tmp_path / mode / "summary.csv").read_text().splitlines()[1:]
        assert len(summary) == 3
        for line in summary:
            rep, _, final_regret = line.split(",")[:3]
            inst = [float(row[5]) for row in rows if row[1] == rep]
            assert float(final_regret) == sum(inst)  # both add left to right

    def test_manifest_config_block(self, tmp_path):
        # the config is written as given, except that an inline feature matrix
        # is recorded as its shape and the sha256 of its float64 bytes
        raw = base_config(tmp_path, environment=features_env(), algorithm={"horizon": 50}, output=str(tmp_path / "m"))
        given = copy.deepcopy(raw)
        cfg = ExperimentConfig.from_dict(raw)
        run_experiment(cfg)
        features = np.asarray(raw["environment"]["features"], dtype=np.float64)
        digest = {"shape": [3, 2], "sha256": hashlib.sha256(features.tobytes()).hexdigest()}
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["config"] == {**raw, "environment": {**raw["environment"], "features": digest}}
        assert manifest["algorithm"] == cfg.algorithm
        assert raw == given  # the caller's config is untouched
        # the resolved config holds the matrix once, as the array the run uses
        assert cfg.environment["features"] is cfg.written["environment"]["features"] is cfg.env.features.features

    def test_manifest_config_with_null_features_beside_a_path(self, tmp_path):
        # a null inline matrix is no matrix: the config names a path, and is written as given, with no digest
        (tmp_path / "f.txt").write_text("2 3\n0.5 0\n0 0.5\n-0.5 0\n")
        environment = {"kind": "features", "path": str(tmp_path / "f.txt"), "features": None, "theta": [1.0, 0.0]}
        raw = base_config(tmp_path, environment=environment, algorithm={"horizon": 50}, output=str(tmp_path / "p"))
        run_experiment(ExperimentConfig.from_dict(raw))
        assert json.loads((tmp_path / "p" / "manifest.json").read_text())["config"] == raw

    def test_manifest_config_without_inline_features(self, tmp_path):
        # a generated environment has no feature matrix in its config: written as given
        raw = base_config(tmp_path, algorithm={"horizon": 50}, output=str(tmp_path / "g"))
        run_experiment(ExperimentConfig.from_dict(raw))
        assert json.loads((tmp_path / "g" / "manifest.json").read_text())["config"] == raw

    @pytest.mark.parametrize(
        "mode, algorithm, resolved",
        [
            (
                "regret",
                {"horizon": 60},
                {"horizon": 60, "delta": 0.05, "c2": 1.0, "c3": 1.0, "schedule": "fixed", "fw_tol": 1e-3},
            ),
            ("error-scaling", {"budget": 70}, {"epsilon": None, "budget": 70, "delta": 0.1}),
            ("design-cert", {}, {"anchor": 0, "fw_tol": 1e-3}),
        ],
    )
    def test_manifest_records_resolved_algorithm(self, tmp_path, mode, algorithm, resolved):
        # beside the config as written, the manifest holds every algorithm key the mode read, defaults applied
        raw = base_config(tmp_path, mode=mode, algorithm=algorithm)
        run_experiment(ExperimentConfig.from_dict(raw))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["algorithm"] == resolved
        assert manifest["config"]["algorithm"] == algorithm

    def test_pac_budget_worked_out_from_epsilon(self, tmp_path):
        # a pac config with only epsilon runs pac_budget's rounds at c2 = 4 and delta = 0.1
        raw = base_config(tmp_path, mode="pac", algorithm={"epsilon": 0.5}, replications=1)
        cfg = ExperimentConfig.from_dict(raw)
        budget = sbe.pac_budget(3, 5, 0.5, 0.1, c2=4.0)
        assert cfg.algorithm == {"epsilon": 0.5, "budget": budget, "delta": 0.1, "c2": 4.0}
        run_experiment(cfg)
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["algorithm"]["budget"] == budget
        assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 1 + budget

    def test_resolved_config_is_frozen(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        for name, value in (("mode", "pac"), ("algorithm", {}), ("replications", 5), ("env", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert cfg.mode == "regret" and cfg.replications == 2

    @pytest.mark.parametrize(
        "workers, replications, cpus, pool_size",
        [(8, 4, 2, 2), (8, 3, 16, 3), (None, 4, 3, 3), (2, 4, 16, 2), (8, 4, None, None)],
    )
    def test_pool_capped_at_cpu_count(self, tmp_path, monkeypatch, workers, replications, cpus, pool_size):
        # pool_size None means the replications run inline
        pool = spy_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        raw = base_config(tmp_path, workers=workers, replications=replications, algorithm={"horizon": 50})
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert pool["sizes"] == ([] if pool_size is None else [pool_size])
        assert pool["submitted"] == (0 if pool_size is None else replications)
        assert result["replications"] == replications

    @pytest.mark.parametrize("workers, cpus, recorded", [(8, 2, 2), (None, 3, 3), (2, 16, 2), (8, None, 1)])
    def test_manifest_records_the_run_plan(self, tmp_path, monkeypatch, workers, cpus, recorded):
        # the worker count the run picked (not the config's), and the versions that ran it
        spy_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        raw = base_config(tmp_path, workers=workers, replications=4, algorithm={"horizon": 50})
        run_experiment(ExperimentConfig.from_dict(raw))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["workers"] == recorded
        assert manifest["python"] == platform.python_version() and manifest["numpy"] == np.__version__

    def test_pool_keeps_two_per_worker_in_flight(self, tmp_path, monkeypatch):
        # a future counts as outstanding from its submission until its result is taken
        pool = spy_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 16)
        raw = base_config(tmp_path, workers=2, replications=9, algorithm={"horizon": 50})
        run_experiment(ExperimentConfig.from_dict(raw))
        assert pool["sizes"] == [2] and pool["submitted"] == 9
        assert pool["peak"] <= 2 * 2
        rows = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[::50, 1], np.arange(9))
        # the running means equal numpy's mean over the replications, bit for bit
        mean = np.loadtxt(tmp_path / "out" / "trajectory_mean.csv", delimiter=",", skiprows=1)
        expected = rows[:, 6:9].reshape(9, 50, 3).mean(axis=0)
        assert mean[:, 1:].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_replication_leaves_no_trajectory(self, tmp_path, monkeypatch, capsys, workers):
        # replication 2 of 3 fails after replication 1's rows are written: the
        # run exits 3 and leaves no trajectory.csv, complete or partial
        run = harness.run_sbe

        def fail_second(env, cfg, run_seed):
            if run_seed == 101:
                raise ConvergenceError("no convergence")
            return run(env, cfg, run_seed=run_seed)

        spy_pool(monkeypatch)  # two workers run in this process, so the patched run_sbe applies
        monkeypatch.setattr(harness, "run_sbe", fail_second)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, workers=workers, replications=3, algorithm={"horizon": 300})))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "error: no convergence\n"
        assert not list((tmp_path / "out").glob("*.part*"))  # neither trajectory.csv's nor a worker's part file
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replication_oserror_keeps_its_message(self, tmp_path, monkeypatch, capsys, workers):
        # an OSError raised while a replication runs is not reported as a failed write of trajectory.csv
        def fail(env, cfg, run_seed):
            raise OSError("resource temporarily unavailable")

        spy_pool(monkeypatch)
        monkeypatch.setattr(harness, "run_sbe", fail)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, workers=workers, replications=2, algorithm={"horizon": 50})))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "error: resource temporarily unavailable\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_manifest_written_whole_or_not_at_all(self, tmp_path):
        # the manifest goes to a temporary name renamed when complete: a manifest
        # that fails to serialize leaves an older manifest.json as it was
        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text")

        path = tmp_path / "manifest.json"
        path.write_text("{}\n")
        with pytest.raises(RuntimeError, match="no text"):
            harness._write_manifest(path, {"mode": "regret", "bad": Unprintable()})
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "{}\n"
        with pytest.raises(IoError, match="cannot write .*missing.*manifest.json"):
            harness._write_manifest(tmp_path / "missing" / "manifest.json", {})
        harness._write_manifest(path, {"mode": "regret", "seeds": [1]})
        assert json.loads(path.read_text()) == {"mode": "regret", "seeds": [1]}
        assert list(tmp_path.iterdir()) == [path]

    def test_pac_mode_summary(self, tmp_path):
        raw = base_config(
            tmp_path,
            mode="pac",
            output=str(tmp_path / "pac"),
            algorithm={"epsilon": 0.25, "delta": 0.1, "c2": 1.0},
            replications=2,
        )
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert result["successes"] >= 1
        lines = (tmp_path / "pac" / "summary.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_seventeen_digit_roundtrip(self, tmp_path):
        values = [math.pi, 1 / 3, 1e-17, 123456.789012345678]
        path = tmp_path / "floats.csv"
        with harness._csv_file(path, ("x",)) as write:
            for text in table_rows("%.17g\n", (np.array(values),)):
                write(text)
        assert [float(v) for v in path.read_text().splitlines()[1:]] == values


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]
)
INTS = st.integers(-(2**63), 2**63 - 1)
# a column drawn from a few of these repeats cells, so its blocks take the
# writer's once-per-distinct-value path; 0.0 and -0.0 are equal but print apart
FLOAT_POOL = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1 / 3]
INT_POOL = [0, -1, 7, 2**63 - 1, -(2**63)]
CELLS = {
    "%d": st.one_of(st.just(INTS), st.lists(st.sampled_from(INT_POOL), min_size=1, max_size=3).map(st.sampled_from)),
    "%.17g": st.one_of(
        st.just(FLOATS), st.lists(st.sampled_from(FLOAT_POOL), min_size=1, max_size=3).map(st.sampled_from)
    ),
}


def cell_text(value) -> str:
    """One cell formatted on its own: the oracle for the block-wise writer."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def line_rows(data, line_format):
    """Rows of cell values for ``line_format``.

    Each column draws its cells either from the full range or from a few
    pooled values.
    """
    specs = line_format.rstrip("\n").split(",")
    cells = [data.draw(CELLS[spec]) for spec in specs]
    return data.draw(st.lists(st.tuples(*cells), min_size=1, max_size=24))


@st.composite
def run_tables(draw, block):
    """A line format and its columns, each constant, all distinct, or runs of 1 to ``block`` equal cells."""
    n = draw(st.integers(1, 3 * block))
    specs = draw(st.lists(st.sampled_from(["%d", "%.17g"]), min_size=1, max_size=6))
    columns = []
    for spec in specs:
        cells_of = FLOATS if spec == "%.17g" else INTS
        pooled = st.sampled_from(FLOAT_POOL if spec == "%.17g" else INT_POOL) | cells_of
        shape = draw(st.sampled_from(["constant", "runs", "distinct"]))
        if shape == "distinct":
            column = draw(st.lists(cells_of, min_size=n, max_size=n))
        elif shape == "constant":
            column = [draw(pooled)] * n
        else:
            column = []
            while len(column) < n:
                column += [draw(pooled)] * draw(st.integers(1, block))
        columns.append(np.array(column[:n], dtype=np.float64 if spec == "%.17g" else np.int64))
    return ",".join(specs) + "\n", columns


def cells_of(column) -> np.ndarray:
    """The cells of a column: a table column ``(table, codes)``'s ``table[codes]``."""
    return column[0][column[1]] if isinstance(column, tuple) else column


def rows_of(column, start: int, stop: int):
    """Rows ``start`` to ``stop`` of a column: of a table column, its table and those rows' codes."""
    return (column[0], column[1][start:stop]) if isinstance(column, tuple) else column[start:stop]


def joined(blocks) -> list:
    """The columns of ``blocks`` joined: a table column's codes joined under the table of its first block."""
    return [
        (column[0][0], np.concatenate([codes for _, codes in column])) if isinstance(column[0], tuple)
        else np.concatenate(column)
        for column in zip(*blocks)
    ]


def table_rows(line, columns, block=None):
    """``cells.rows`` of the equal-length ``columns`` in blocks of ``block`` rows (``harness._WRITE_BLOCK`` if None)."""
    block = block or harness._WRITE_BLOCK
    blocks = (tuple(rows_of(c, s, s + block) for c in columns) for s in range(0, len(cells_of(columns[0])), block))
    return cells.rows(line, blocks)


def written_lines(line, columns, block):
    """The lines ``table_rows`` writes, newlines kept: a list, which pytest compares quickly when long."""
    return "".join(table_rows(line, columns, block)).splitlines(keepends=True)


def per_cell_lines(line, columns):
    """``line % row`` of each row: the oracle for ``written_lines``."""
    return [line % row for row in zip(*(cells_of(c).tolist() for c in columns))]


def spy_widths(monkeypatch) -> list:
    """The words of a row of each block ``cells.rows`` lays out from now on, in order."""
    widths = []
    lay_out = cells._lay_out

    def spy(*args):
        widths.append(lay_out(*args))
        return widths[-1]

    monkeypatch.setattr(cells, "_lay_out", spy)
    return widths


def boundary_floats() -> np.ndarray:
    """Float cells at the edges of the encoder's fast path, with both signs.

    Every double within 8 ulps of each power of ten from 1e-5 to 1e17: where
    fixed notation starts and ends, and where a 17-digit rounding may carry
    into the next power.  Exact half-way cases: x = t 2^-f with t odd and
    10^E <= x < 10^(E+1) has f = 17 - E fraction digits, 18 significant
    digits ending in 5.  Odd multiples of 2^-j with few digits.  Signed zeros,
    NaN with either sign bit, infinities, subnormals, and random 64-bit
    patterns.
    """
    rng = np.random.default_rng(2506)
    powers = 10.0 ** np.arange(-5, 18)
    near = (powers.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64)
    e = np.arange(-4, 16)
    f = 17.0 - e
    low = 10.0**e * 2.0**f
    high = np.minimum(10.0 ** (e + 1) * 2.0**f, 2.0**53)
    ties = ((low[:, None] + rng.random((e.size, 200)) * (high - low)[:, None]) // 2 * 2 + 1) * 2.0 ** -f[:, None]
    short = (rng.integers(0, 2**19, (61, 20)) * 2 + 1) * 2.0 ** -np.arange(61)[:, None]
    specials = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-4, 1e16]
    bits = rng.integers(-(2**63), 2**63 - 1, 20_000).view(np.float64)
    cells = np.concatenate([near.ravel(), ties.ravel(), short.ravel(), specials, bits])
    return np.concatenate([cells, -cells, [-math.nan]])


def _ties(e: int):
    """Odd t 2^-f with 10^e <= t 2^-f < 10^(e + 1), f = 17 - e: 18 significant digits ending in 5."""
    f = 17 - e
    low, high = Fraction(10) ** e * 2**f, Fraction(10) ** (e + 1) * 2**f
    return st.integers(math.ceil((low - 1) / 2), math.ceil((high - 1) / 2) - 1).map(lambda m: (2 * m + 1) * 2.0**-f)


def _next_to_power_of_ten(e: int) -> np.ndarray:
    """The doubles within 40 steps of the double nearest 10^e."""
    return (np.array([10.0**e]).view(np.int64) + np.arange(-40, 41)).view(np.float64)


# exact ties of the 17-digit rounding, which % breaks to even, over the
# encoder's range [1e-4, 1e8), with either sign
TIES = st.integers(-4, 7).flatmap(_ties).flatmap(lambda x: st.sampled_from([x, -x]))


class TestWriter:
    @pytest.mark.parametrize("line_format", [TRAJECTORY_LINE, MEAN_LINE])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), block=st.integers(1, 8))
    def test_lines_match_per_cell_format(self, tmp_path, monkeypatch, line_format, data, block):
        rows = line_rows(data, line_format)
        monkeypatch.setattr(harness, "_WRITE_BLOCK", block)
        columns = [
            np.array(cells, dtype=np.int64 if spec == "%d" else np.float64)
            for spec, cells in zip(line_format.rstrip("\n").split(","), zip(*rows))
        ]
        blocks = list(table_rows(line_format, columns))
        assert [len(b.splitlines()) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        expected = "".join(",".join(cell_text(v) for v in row) + "\n" for row in rows)
        assert "".join(blocks) == expected

    @pytest.mark.parametrize("block", [2, 5, 2048])
    def test_signed_zeros_print_apart(self, tmp_path, monkeypatch, block):
        # 0.0 == -0.0, so a block that formats each distinct cell once must key on bits, not values
        monkeypatch.setattr(harness, "_WRITE_BLOCK", block)
        path = tmp_path / "zeros.csv"
        with harness._csv_file(path, ("z", "n")) as write:
            for text in table_rows("%.17g,%d\n", (np.array([0.0, -0.0] * 6), np.zeros(12, dtype=np.int64))):
                write(text)
        assert path.read_text() == "z,n\n" + "0,0\n-0,0\n" * 6

    def test_float_boundaries(self):
        # two columns, so that a field's text and the separator before it are both checked
        values = boundary_floats()
        text = "".join(table_rows("%.17g,%.17g\n", (values, values[::-1])))
        assert text == "".join("%.17g,%.17g\n" % row for row in zip(values.tolist(), values[::-1].tolist()))

    @pytest.mark.parametrize(
        "edges, high",
        [
            ([0, 1, 9, 10, 99, 10**7 - 1], 10**7),  # fields of one word
            ([0, 10**7 - 1, 10**7, 10**8 - 1], 10**8),  # of two
            ([10**8 - 1, 10**8, 2**63 - 1, -(2**63) + 1, -(2**63), -1], 2**63 - 1),  # of three, a sign and 19 digits
        ],
    )
    def test_int_boundaries(self, edges, high):
        rng = np.random.default_rng(2506)
        values = np.concatenate([edges, rng.integers(0, high, 3000), rng.integers(-high, high, 3000 * (high > 10**8))])
        values = values.astype(np.int64)
        text = "".join(table_rows("%d,%d\n", (values, values[::-1])))
        assert text == "".join("%d,%d\n" % row for row in zip(values.tolist(), values[::-1].tolist()))

    def test_fast_path_is_taken(self, monkeypatch):
        # of standard-normal cells, % formats only those below 1e-4 in magnitude
        formatted = []
        percent = cells._percent

        def counting(spec, values, words=0):
            formatted.extend(values.tolist())
            return percent(spec, values, words)

        monkeypatch.setattr(cells, "_percent", counting)
        values = np.random.default_rng(0).standard_normal(10_000)
        text = "".join(table_rows("%.17g\n", (values,)))
        assert text == "".join("%.17g\n" % v for v in values.tolist())
        assert formatted == values[np.abs(values) < 1e-4].tolist()

    def test_int_fast_path_is_taken(self, monkeypatch):
        # % formats exactly the int cells outside [0, 1e8), in the order they come
        formatted = []
        percent = cells._percent

        def counting(spec, values, words=0):
            formatted.extend(values.tolist())
            return percent(spec, values, words)

        monkeypatch.setattr(cells, "_percent", counting)
        rng = np.random.default_rng(0)
        values = rng.integers(-(10**9), 10**9, 10_000)
        values[:4] = [-(2**63), 2**63 - 1, 10**8 - 1, 10**8]
        text = "".join(table_rows("%d\n", (values,)))
        assert text == "".join("%d\n" % v for v in values.tolist())
        assert formatted == values[(values < 0) | (values >= 10**8)].tolist()

    @settings(max_examples=200, deadline=None)
    @given(ties=st.lists(TIES), power=st.integers(-5, 9))
    def test_exact_ties_and_powers_of_ten(self, ties, power):
        # and the doubles next to a power of ten from 1e-5 to 1e9, where log10
        # may be one off and the rounding may carry into the next power
        near = _next_to_power_of_ten(power)
        column = np.concatenate([ties, near, -near])
        assert written_lines("%.17g\n", (column,), 2048) == per_cell_lines("%.17g\n", (column,))

    def test_doubles_next_to_powers_of_ten(self, monkeypatch):
        # the fast path's test on N, the 17-digit rounding, at its edges: 10^m and the doubles on either side,
        # m in [-5, 8], with either sign.  % formats only cells off [1e-4, 1e8) and cells just below a power of
        # ten, where log10 may round up to it
        formatted = []
        percent = cells._percent

        def counting(spec, values, words):
            formatted.extend(values.tolist())
            return percent(spec, values, words)

        monkeypatch.setattr(cells, "_percent", counting)
        powers = 10.0 ** np.arange(-5, 9)
        below = np.nextafter(powers, -np.inf)
        column = np.concatenate([np.nextafter(powers, np.inf), below, powers])
        column = np.concatenate([column, -column])
        assert written_lines("%.17g\n", (column,), 2048) == per_cell_lines("%.17g\n", (column,))
        fast = (np.abs(column) >= 1e-4) & (np.abs(column) < 1e8) & ~np.isin(np.abs(column), below)
        assert not set(formatted) & set(column[fast].tolist())

    def test_fallback_for_every_cell_gives_the_same_bytes(self, tmp_path, monkeypatch):
        # % on every cell of every column, through the encoders' field layout
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, algorithm={"horizon": 5_000}))
        blocks = list(harness._replication_task(cfg, 0, harness._sums(5_000), []))
        encoded = "".join(harness._stream_rows(TRAJECTORY_LINE, blocks))
        columns = joined(blocks)
        assert "".join(table_rows(TRAJECTORY_LINE, columns)) == encoded
        assert "".join(table_rows(TRAJECTORY_LINE, [*map(cells_of, columns)])) == encoded  # inst_regret plain

        def percent_only(spec, words):
            return lambda values: cells._percent(spec, values, words)

        monkeypatch.setattr(cells, "_encode_floats", percent_only("%.17g", 4))
        monkeypatch.setattr(cells, "_encode_ints", percent_only("%d", 3))  # 3 words hold any int64
        assert "".join(table_rows(TRAJECTORY_LINE, columns)) == encoded

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), block=st.integers(1, 40))
    def test_tables_of_runs_match_per_cell_format(self, data, block):
        # constant columns, runs of any length up to a block, NaN and signed-zero runs, all-distinct columns
        line, columns = data.draw(run_tables(block))
        assert written_lines(line, columns, block) == per_cell_lines(line, columns)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_runs_of_every_length_up_to_the_block(self, block):
        lengths = np.arange(1, block + 1).repeat(2)
        runs = np.arange(lengths.size)
        columns = (
            np.repeat(np.where(runs % 2, 0.0, -0.0), lengths),  # signed zeros, in one grouped call with the next two
            np.repeat(np.where(runs % 3, -0.0, math.nan), lengths),
            np.repeat(runs * 0.1, lengths),
            np.repeat(runs, lengths),
            np.repeat(runs % 2 - 2**62, lengths),  # negative: a field of three words, with a sign
        )
        line = "%.17g,%.17g,%.17g,%d,%d\n"
        assert written_lines(line, columns, block) == per_cell_lines(line, columns)

    @pytest.mark.parametrize(
        "line, columns",
        [
            ("%d,%.17g,%d\n", (np.full(10, 7), np.full(10, 0.1), np.full(10, -(2**63)))),  # one literal, newline in
            ("%d,%.17g,%d,%.17g\n", (np.full(10, 3), np.full(10, 1.5), np.arange(10), np.full(10, 2.0))),
            ("%.17g,%d,%d,%.17g\n", (np.arange(10.0), np.full(10, 4), np.arange(10), np.full(10, 1e-9))),
            ("%d,%.17g,%.17g,%d\n", (np.arange(10), np.full(10, math.nan), np.full(10, -0.0), np.arange(10))),
            ("%.17g,%.17g,%.17g\n", (np.full(10, math.inf), np.full(10, -math.inf), np.full(10, 0.0))),
        ],
        ids=["all-constant", "constant-first-and-last", "two-literals-split", "nan-and-signed-zero", "infinities"],
    )
    @pytest.mark.parametrize("block", [1, 4, 10])
    def test_constant_columns_are_literals(self, monkeypatch, line, columns, block):
        # adjacent columns of one bit pattern in a block are one literal, its commas and any newline in it
        widths = spy_widths(monkeypatch)
        assert written_lines(line, columns, block) == per_cell_lines(line, columns)
        constant = [np.all(c.view(np.int64) == c.view(np.int64)[0]) for c in columns]
        if all(constant):  # the row is one literal: its text, padded to whole words
            assert widths == [-(-len(per_cell_lines(line, columns)[0]) // 8)] * -(-10 // block)

    def test_summary_csv_is_percent_of_each_row(self, tmp_path):
        # summary.csv, a row per replication, is SUMMARY_LINE % row: a %s cell is empty where a
        # replication declared no arm, and greedy_arm is empty in regret mode
        rows = []
        for mode, algorithm in [
            ("regret", {"delta": 0.05, "horizon": 300, "c2": 1.0}),
            ("regret", {"delta": 0.05, "horizon": 2_000, "c2": 1.0}),
            ("pac", {"epsilon": 0.5, "budget": 300}),
        ]:
            cfg = ExperimentConfig.from_dict(base_config(tmp_path, mode=mode, algorithm=algorithm, replications=3))
            run_experiment(cfg)
            summaries, sums = [], harness._sums(harness._rounds(cfg.algorithm))
            for rep in range(3):
                collections.deque(harness._replication_task(cfg, rep, sums, summaries), 0)
            texts = [[s[c] if isinstance(s[c], str) else cell_text(s[c]) for c in SUMMARY_COLUMNS] for s in summaries]
            text = "".join(",".join(row) + "\n" for row in texts)
            assert text == "".join(SUMMARY_LINE % tuple(s[c] for c in SUMMARY_COLUMNS) for s in summaries)
            assert (tmp_path / "out" / "summary.csv").read_text() == ",".join(SUMMARY_COLUMNS) + "\n" + text
            rows += texts
        assert {row[3] == "" for row in rows} == {row[5] == "" for row in rows} == {True, False}

    @pytest.mark.parametrize(
        "spec, column",
        [
            ("%s", np.array(["", "3"], dtype=object)),
            ("%d", np.array([1, 2], dtype=object)),
            ("%.17g", np.array([0.5, 1.5], dtype=np.float32)),
            ("%d", np.array([1, 2], dtype=np.int32)),
            ("%.17g", np.array([1, 2])),
        ],
        ids=["text", "object-ints", "float32", "int32", "int64-as-float"],
    )
    def test_rows_reject_columns_without_an_encoder(self, spec, column):
        # the writer takes float64 under %.17g and int64 under %d, and nothing else
        with pytest.raises(TypeError, match="^no array encoder"):
            next(table_rows(f"%d,{spec}\n", (np.arange(2), column), 4))

    def test_row_width_follows_each_block(self, monkeypatch):
        # a column constant in one block and varying in the next: each block has its own width
        column = np.concatenate([np.full(4, 1.5), np.arange(4) / 3, np.full(4, 2.5), [0.25]])
        columns = (np.arange(13), column, np.full(13, 8))
        widths = spy_widths(monkeypatch)
        line = "%d,%.17g,%d\n"
        assert written_lines(line, columns, 4) == per_cell_lines(line, columns)
        assert widths == [1 + 1, 1 + 4 + 1, 1 + 1, 1 + 1]

    def test_one_grouped_call_per_encoder_per_block(self, monkeypatch):
        # each block makes one call per encoder: the run heads of its run
        # columns and every cell of its columns of distinct cells, each field
        # as wide as the widest cell of the call needs
        calls = {"_encode_floats": [], "_encode_ints": []}
        for name, sizes in calls.items():

            def counting(values, encode=getattr(cells, name), sizes=sizes):
                fields = encode(values)
                sizes.append((len(values), fields.shape[1]))
                return fields

            monkeypatch.setattr(cells, name, counting)
        n, block = 5000, 2048
        columns = (
            np.repeat([0.5, -0.0, 0.0, math.nan], [1000, 1500, 1500, 1000]),
            np.full(n, 0.0),
            np.repeat([0.25, 1e-9], [4000, 1000]),
            np.random.default_rng(0).standard_normal(n),
            np.arange(n) // 1000,
            np.full(n, 3, dtype=np.int64),
            np.arange(n) * 10**9,  # distinct and past 1e8: fields of three words
        )
        line = "%.17g,%.17g,%.17g,%.17g,%d,%d,%d\n"
        assert written_lines(line, columns, block) == per_cell_lines(line, columns)
        # by block: the heads of the three float run columns, then the normal column's cells
        assert calls["_encode_floats"] == [(2 + 1 + 1 + 2048, 4), (3 + 1 + 2 + 2048, 4), (1 + 1 + 1 + 904, 4)]
        # the heads of both narrow int columns and the wide column's cells, in fields of the wide column's words
        assert calls["_encode_ints"] == [(3 + 1 + 2048, 3), (3 + 1 + 2048, 3), (1 + 1 + 904, 3)]

    def test_int_fields_widen_from_block_to_block(self, monkeypatch):
        # each block's int fields are as wide as its widest int cell: 10^7 and 10^8 come after small cells, in a
        # column beside a narrow one, and every row is still % of its cells
        widths = spy_widths(monkeypatch)
        columns = (np.arange(12) % 5, np.array([1, 2, 3, 4, 10**7, 5, 6, 7, 10**8, 8, 9, 12345678]))
        assert written_lines("%d,%d\n", columns, 4) == per_cell_lines("%d,%d\n", columns)
        assert widths == [1 + 1 + 1, 2 + 2 + 1, 3 + 3 + 1]

    def test_failed_write_leaves_no_file(self, tmp_path):
        # the rows go to a temporary name and are renamed only when all are in
        def rows():
            yield "1\n"
            raise RuntimeError("replication failed")

        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError):
            with harness._csv_file(path, ("x",)) as write:
                for text in rows():
                    write(text)
        assert list(tmp_path.iterdir()) == []
        # a file of an earlier run keeps its bytes
        path.write_text("x\n0\n")
        with pytest.raises(RuntimeError):
            with harness._csv_file(path, ("x",)) as write:
                for text in rows():
                    write(text)
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "x\n0\n"

    def test_only_file_errors_name_the_file(self, tmp_path):
        # an OSError of the block's own work passes through as raised, not as a write error
        path = tmp_path / "t.csv"
        with pytest.raises(OSError, match="^too many open files$"):
            with harness._csv_file(path, ("x",)):
                raise OSError("too many open files")
        assert list(tmp_path.iterdir()) == []
        # an OSError of opening the file is an IoError that names it
        with pytest.raises(IoError, match="cannot write .*missing.*t.csv"):
            with harness._csv_file(tmp_path / "missing" / "t.csv", ("x",)):
                pass


# table entries at the encoders' edges: signed zeros, NaN, infinities, subnormals, the ends of the float fast
# path, and ints past 10^8, of three-word fields
TABLE_POOL = {
    "%.17g": [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308, 1e-5, 1e8, 0.1, -1 / 3],
    "%d": [0, 7, 10**7, 10**8 - 1, 10**8, 10**12, 2**63 - 1, -(2**63)],
}


@st.composite
def table_streams(draw):
    """A line format and a stream of blocks that mix table columns ``(table, codes)`` and plain columns.

    A block has 1 to 9 rows.  A table column's table, the same in every
    block, draws from the encoders' edge cells and any cell; each of its
    blocks holds one code, every code (as many as the block's rows allow),
    or any codes.
    """
    specs = draw(st.lists(st.sampled_from(["%d", "%.17g"]), min_size=1, max_size=5))
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    columns = []  # by column: its blocks
    for spec in specs:
        dtype = np.float64 if spec == "%.17g" else np.int64
        any_cell = FLOATS if spec == "%.17g" else INTS
        if draw(st.booleans()):
            entries = draw(st.lists(st.sampled_from(TABLE_POOL[spec]) | any_cell, min_size=1, max_size=8))
            table = np.array(entries, dtype)
            code = st.integers(0, table.size - 1)
            order = np.array(draw(st.permutations(range(table.size))), np.int64)
            blocks = []
            for n in lengths:
                kind = draw(st.sampled_from(["one", "every", "any"]))
                if kind == "one":
                    codes = np.full(n, draw(code), np.int64)
                elif kind == "every":
                    codes = np.resize(order, n)
                else:
                    codes = np.array(draw(st.lists(code, min_size=n, max_size=n)), np.int64)
                blocks.append((table, codes))
            columns.append(blocks)
        else:
            cell = draw(CELLS[spec])
            columns.append([np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype) for n in lengths])
    return ",".join(specs) + "\n", list(zip(*columns))


class TestTableColumns:
    @settings(max_examples=150, deadline=None)
    @given(stream=table_streams())
    def test_rows_are_percent_of_each_row(self, stream):
        # cells.rows over blocks of table and plain columns writes line % row on every row
        line, blocks = stream
        expected = [line % row for block in blocks for row in zip(*(cells_of(c).tolist() for c in block))]
        assert "".join(cells.rows(line, blocks)).splitlines(keepends=True) == expected

    @pytest.mark.parametrize("spec", ["%.17g", "%d"])
    def test_edge_tables(self, monkeypatch, spec):
        # every edge cell in one table, in blocks of one row, of one code and of every code, beside a plain
        # column of the other kind: the table is encoded once, its encoder is called for nothing else, and
        # a block of one code lays it out as a literal
        dtype, plain = (np.float64, np.int64) if spec == "%.17g" else (np.int64, np.float64)
        encode = cells._encoder(spec, np.dtype(dtype))
        sent = []
        monkeypatch.setattr(cells, encode.__name__, lambda values: sent.append(len(values)) or encode(values))
        widths = spy_widths(monkeypatch)
        table = np.array(TABLE_POOL[spec], dtype)
        every = np.arange(table.size)[::-1]
        codes = [np.array([3]), np.full(5, 2), every, every[:1], np.full(4, table.size - 1)]
        line = ("%d," if plain is np.int64 else "%.17g,") + spec + "\n"
        blocks = [(np.arange(len(c), dtype=plain), (table, c)) for c in codes]
        expected = [line % row for b in blocks for row in zip(b[0].tolist(), cells_of(b[1]).tolist())]
        assert "".join(cells.rows(line, blocks)).splitlines(keepends=True) == expected
        assert sent == [table.size]
        t_words = 1 if plain is np.int64 else 4
        for width, c, text in zip(widths, codes, [expected[0], None, None, expected[-5], None]):
            if text is not None:  # one row: the whole row is one literal
                assert width == -(-len(text) // 8)
            elif len(set(c.tolist())) == 1:  # t's field, then the table cell's literal and the newline
                assert width == t_words + -(-len("," + spec % table[c[0]].item() + "\n") // 8)

    @pytest.mark.parametrize("mode, algorithm", [("error-scaling", {"budget": 3_000}), ("regret", {"horizon": 3_000})])
    def test_pooled_run_writes_the_inline_bytes(self, tmp_path, mode, algorithm):
        # a run's trajectory, its inst_regret a table column in each worker's stream, as an inline run writes it
        for workers in (1, 2):
            raw = base_config(tmp_path, mode=mode, algorithm=algorithm, replications=3, workers=workers)
            run_experiment(ExperimentConfig.from_dict({**raw, "output": str(tmp_path / str(workers))}))
        for name in ("trajectory.csv", "trajectory_mean.csv", "summary.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_inst_regret_is_a_table_column(self, tmp_path):
        # harness passes inst_regret as (values[best] - values, arm), whose cells have the bits of compute_metrics'
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, mode="error-scaling", algorithm={"budget": 3_000}))
        record = run_pure_exploration(cfg.env, 3_000, cfg.algorithm["delta"], run_seed=100)[2]
        computed = metric_blocks(record, cfg.env, cfg.betas, harness._WRITE_BLOCK)
        for block, columns in zip(harness._trajectory_blocks(record, cfg.env, cfg.betas, 0, None), computed):
            table, codes = block[5]
            assert codes is block[3] and table.shape == (cfg.env.K,)
            assert table[codes].view(np.int64).tolist() == columns[4].view(np.int64).tolist()


class TestRunningMean:
    @pytest.mark.parametrize("reps", range(1, 41))
    def test_running_sums_equal_numpy_mean(self, monkeypatch, reps):
        # the trajectory_mean.csv columns, bit for bit, with NaN prefixes like regret e_t: each replication's
        # blocks added into _sums in index order, then divided a block at a time
        monkeypatch.setattr(harness, "_WRITE_BLOCK", 5)
        rng = np.random.default_rng(reps)
        for _ in range(5):
            columns = []
            for _ in range(reps):
                col = rng.standard_normal(64) * 10.0 ** rng.uniform(-3, 3, 64)
                col[: rng.integers(0, 20)] = math.nan
                columns.append((col, np.cumsum(np.abs(col[::-1])), -col))
            sums = harness._sums(64)
            for cols in columns:
                for s in range(0, 64, 5):
                    sums[:, s : s + 5] += tuple(c[s : s + 5] for c in cols)
            blocks = list(harness._mean_blocks(sums, reps))
            assert [len(block[0]) for block in blocks] == [5] * 12 + [4]
            expected = [np.arange(1, 65), *(np.mean([cols[i] for cols in columns], axis=0) for i in range(3))]
            assert [np.concatenate(column).tobytes() for column in zip(*blocks)] == [e.tobytes() for e in expected]

    def test_worker_sums_are_added_from_their_file_a_block_at_a_time(self, tmp_path, monkeypatch):
        # a pool's parent reads each worker's part a block at a time: its mean columns are added into the run's sums
        # in place, the bits of adding them inline, and its text is what the inline stream writes, holding a block of
        # them at a time (a replication's mean columns are 4.8 MB here, its text 18.5 MB)
        n = 200_000
        raw = base_config(tmp_path, algorithm={"horizon": n, "delta": 0.05}, output=str(tmp_path))
        cfg = ExperimentConfig.from_dict(raw)
        monkeypatch.setattr(harness, "_worker_run", cfg)
        expected, sums = harness._sums(n), harness._sums(n)
        for rep in range(cfg.replications):
            inline, longest = hashlib.sha256(), 0
            blocks = harness._replication_task(cfg, rep, expected, [])
            for text in harness._stream_rows(TRAJECTORY_LINE, blocks):
                inline.update(text.encode())
                longest = max(longest, len(text))
            harness._pooled_task(rep)
            digest = hashlib.sha256()
            _, peak = traced_peak(harness._append_part, harness._part(cfg, rep), sums, lambda t: digest.update(t.encode()))
            assert digest.hexdigest() == inline.hexdigest()
            assert peak < 4 * longest + 4 * 8 * harness._WRITE_BLOCK
        assert sums.tobytes() == expected.tobytes()

    def test_worker_peak_does_not_grow_with_the_horizon(self, tmp_path, monkeypatch):
        # a pool worker writes each block's mean columns and text to its part as it makes them: at 10x the rounds its
        # traced peak moves by less than a few blocks' columns; holding its mean columns would add 24 B a round, 6.5 MB
        peaks = []
        for n in (30_000, 300_000):
            raw = base_config(tmp_path, algorithm={"horizon": n, "delta": 0.05}, output=str(tmp_path))
            cfg = ExperimentConfig.from_dict(raw)
            monkeypatch.setattr(harness, "_worker_run", cfg)
            summary, peak = traced_peak(harness._pooled_task, 0)
            assert summary["declared_at"] != "" and harness._part(cfg, 0).stat().st_size > 24 * n
            harness._part(cfg, 0).unlink()
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < len(TRAJECTORY_COLUMNS) * harness._WRITE_BLOCK * 8

    def test_sums_take_the_first_replication_as_it_is(self):
        # the sums start at -0.0, which + leaves as it is: a 0.0 start would turn a -0.0 cell into 0.0
        cells = np.array([-0.0, 0.0, math.nan, -math.inf, 5e-324, -1.5])
        sums = harness._sums(cells.size)
        sums += (cells, -cells, cells[::-1])
        assert sums.tobytes() == np.stack([cells, -cells, cells[::-1]]).tobytes()


class TestCli:
    def test_validate_ok(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["validate", "--config", str(path)]) == 0

    @pytest.mark.parametrize("kind", ["features", "mab"])
    def test_negative_environment_seed_accepted(self, tmp_path, kind):
        # only gap_instance's seed reaches numpy's generator; the others are keyed as integers of any sign
        environment = features_env(seed=-1) if kind == "features" else {"kind": "mab", "mu": [0.5, 0.1], "seed": -1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=environment, algorithm={"horizon": 200})))
        assert main(["validate", "--config", str(path)]) == 0

    def test_validate_bad(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, mode="nope")))
        assert main(["validate", "--config", str(path)]) == 2

    def test_missing_config(self, tmp_path, capsys):
        # a config file that cannot be found, opened, decoded or parsed is a config error, read under one guard
        cases = {
            "missing": None,
            "directory": "directory",
            "not-utf-8": b'\xff\xfe{"mode": "regret"}',
            "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
        }
        for name, contents in cases.items():
            path = tmp_path / name
            if contents == "directory":
                path.mkdir()
            elif contents is not None:
                path.write_bytes(contents)
            for command in ("validate", "run"):
                assert main([command, "--config", str(path)]) == 2, (name, command)
                err = capsys.readouterr().err
                assert err.startswith("config error: config: ") and err.count("\n") == 1, (name, command, err)

    def test_run_and_design(self, tmp_path, capsys):
        feats = tmp_path / "feats.txt"
        feats.write_text("2 3\n0 0\n1 0\n0 1\n")
        assert main(["design", str(feats)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "arm_index,probability"
        assert "max_anchor_norm" in out

        path = tmp_path / "cfg.json"
        cfgdict = base_config(tmp_path, output=str(tmp_path / "cli_out"), replications=1)
        cfgdict["algorithm"]["horizon"] = 300
        path.write_text(json.dumps(cfgdict))
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "cli_out" / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "options, contents, blame",
        [
            (["--fw-tol", "0"], b"2 3\n0 0\n1 0\n0 1\n", "--fw-tol"),
            (["--fw-tol", "-1"], b"2 3\n0 0\n1 0\n0 1\n", "--fw-tol"),
            (["--fw-tol", "inf"], b"2 3\n0 0\n1 0\n0 1\n", "--fw-tol"),
            (["--fw-tol", "nan"], b"2 3\n0 0\n1 0\n0 1\n", "--fw-tol"),
            ([], None, "features_file"),
            ([], b"2 3\n0 0\n1 x\n0 1\n", "features_file"),
            ([], b"2 3\n0 0\nnan 0\n0 1\n", "features_file"),
            ([], b"2 3.5\n0 0\n1 0\n0 1\n", "features_file"),
            ([], b"d K\n0 0\n1 0\n0 1\n", "features_file"),
            ([], b"2 3\n0 0\n1 0 1\n0 1\n", "features_file"),
            ([], b"2 3\n0 0\n\xff\xfe\n0 1\n", "features_file"),
            (["--anchor", "3"], b"2 3\n0 0\n1 0\n0 1\n", "--anchor"),
            (["--anchor", "-1"], b"2 3\n0 0\n1 0\n0 1\n", "--anchor"),
            ([], b"2 2\n0.3 0.4\n0.3 0.4\n", "features_file"),
            ([], b"2 1\n0.3 0.4\n", "features_file"),
            ([], b"2 3\n", "features_file"),
            ([], b"2 3\n0 0\n0.1 0.1\n0.1 0.100000001\n", None),
        ],
        ids=[
            "zero-fw-tol", "negative-fw-tol", "infinite-fw-tol", "nan-fw-tol", "missing-file", "non-numeric-cell",
            "nan-cell", "non-integer-header", "non-numeric-header", "ragged-row", "not-utf8", "anchor-out-of-range",
            "negative-anchor", "identical-arms", "one-arm", "no-rows", "near-duplicate-arms",
        ],
    )
    def test_design_errors(self, tmp_path, capsys, options, contents, blame):
        # a bad option, a missing or malformed feature file, or one whose arms are fewer than two or
        # all identical (the rule a config's arms follow) is a config error (exit 2) that names it;
        # a file of arms too close for their design matrix to be inverted exits 3; each prints one line
        feats = tmp_path / "feats.txt"
        if contents is not None:
            feats.write_bytes(contents)
        assert main(["design", str(feats), *options]) == (3 if blame is None else 2)
        err = capsys.readouterr().err
        assert err.startswith("error:" if blame is None else f"config error: {blame}: ")
        assert len(err.splitlines()) == 1

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        # a round count within the cap can still be more than memory holds; the run's allocation fails
        def rewards_for(env, arms, t0, noise):
            raise MemoryError()

        monkeypatch.setattr(sbe, "rewards_for", rewards_for)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_near_duplicate_arms_run_error(self, tmp_path, capsys):
        # the design matrix of these arms cannot be inverted in double precision
        env = features_env(features=[[0.0, 0.0], [0.1, 0.1], [0.1, 0.100000001]], theta=[0.0, 1.0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env)))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: the 2-dimensional feature span is too ill-conditioned")

    def test_import_loads_numpy_only(self):
        # numpy is the only dependency: in a fresh interpreter, the top-level
        # packages that importing the CLI adds, less the standard library
        # (and the dunder aliases it registers), are numpy and the package
        code = (
            "import sys; before = set(sys.modules); import semibandit.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before if not m.startswith('__')}; "
            "print(sorted(new - set(sys.stdlib_module_names)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(semibandit.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "['numpy', 'semibandit']"

    def test_import_loads_no_process_pool(self):
        # multiprocessing is imported only by a run that starts a pool
        code = "import sys; import semibandit.cli; print('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(semibandit.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_setup_loads_no_hashlib(self, tmp_path):
        # hashlib (and OpenSSL's _hashlib) is imported only to digest inline
        # features for the manifest: importing the CLI and reading a features
        # config into an environment load neither
        features = {"kind": "features", "features": [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], "theta": [1.0, 0.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=features)))
        code = (
            "import sys; import semibandit.cli; from semibandit.harness import ExperimentConfig, build_environment; "
            f"build_environment(ExperimentConfig.from_file({str(path)!r}).environment); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(semibandit.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("overrides", BAD_CONFIGS.values(), ids=list(BAD_CONFIGS))
    def test_config_errors_exit_2(self, tmp_path, capsys, monkeypatch, command, overrides):
        monkeypatch.chdir(tmp_path)  # a config that names no directory must not write into this one
        path = tmp_path / "cfg.json"
        raw = {k: v for k, v in base_config(tmp_path, **overrides).items() if v is not None}
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_phase_one_sized_by_rank_bound(self, tmp_path, capsys):
        # five arms in R^3 on the plane z = 0: phase 1's certificate has dim 2, but the config is
        # checked at min(d, K - 1) = 3, the largest dim an anchored set of five arms in R^3 can have.
        # At c2 in (9.5e14, 1.6e15] only dim 3 overflows, so this exits 2 as full-rank features do
        plane = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, -0.5, 0.0]]
        assert deo(design.FeatureSet(plane))[1].dim == 2
        assert sbe.phase_length(1, 2, 5, 0.05, 1.2e15, 1.0, "fixed") == 422_400_000_000_000_000
        environment = {"kind": "features", "features": plane, "theta": [1.0, 0.0, 0.0]}
        algorithm = {"horizon": 2000, "delta": 0.05, "c2": 1.2e15, "schedule": "fixed"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=environment, algorithm=algorithm)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                "config error: algorithm: phase 1 length: must be at most 576460752303423488 rounds\n"
            )

    def test_huge_pac_epsilon_runs_one_round(self, tmp_path):
        # an epsilon whose square is past the largest double asks for a budget of one round
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, mode="pac", algorithm={"epsilon": 1e200})))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["algorithm"]["budget"] == 1

    @pytest.mark.parametrize(
        "case", ["bool-pac-c2", "negative-pac-c2", "bool-error-scaling-c2", "zero-error-scaling-c2", "huge-int-pac-c2"]
    )
    def test_c2_errors_name_c2(self, tmp_path, capsys, case):
        # a PAC budget from a bad c2 must blame c2, not the budget it yields
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, **BAD_CONFIGS[case])))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: algorithm.c2: ")

    @pytest.mark.parametrize(
        "case, field",
        [
            ("misspelled-algorithm-key", "algorithm.detla"),
            ("misspelled-environment-key", "environment.sede"),
            ("misspelled-noise-key", "environment.noise.scael"),
            ("misspelled-shift-key", "environment.shift.constnat"),
            ("pac-fw-tol", "algorithm.fw_tol"),
            ("bool-error-scaling-c2", "algorithm.c2"),  # only a budget worked out from epsilon reads c2
            ("zero-error-scaling-c2", "algorithm.c2"),
        ],
    )
    def test_unknown_keys_name_the_field(self, tmp_path, capsys, case, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, **BAD_CONFIGS[case])))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: unknown field")

    @pytest.mark.parametrize(
        "case, field",
        [
            ("overflowing-gaussian-noise-scale", "environment.noise"),
            ("huge-feature-entries", "environment.features"),
            ("huge-replications", "replications"),
            ("replications-times-horizon-past-cap", "replications"),
            ("singular-ridge-features", "environment.features"),
        ],
    )
    def test_overflow_errors_name_the_field(self, tmp_path, capsys, case, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, **BAD_CONFIGS[case])))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize(
        "case, field",
        [
            ("zero-d", "environment.d"),
            ("bool-d", "environment.d"),
            ("string-d", "environment.d"),
            ("float-K", "environment.K"),
            ("bool-K", "environment.K"),
            ("one-K", "environment.K"),
            ("large-gap", "environment.gap"),
            ("unrealizable-gap", "environment.gap"),
            ("bool-gap", "environment.gap"),
            ("string-mu", "environment.mu"),
            ("nan-mu", "environment.mu"),
            ("short-theta", "environment.theta"),
            ("nan-theta", "environment.theta"),
            ("missing-gap", "environment.gap"),
            ("missing-theta", "environment.theta"),
            ("missing-features", "environment.features"),
            ("one-arm", "environment.features"),
            ("identical-arms", "environment.features"),
            ("identical-arms-file", "environment.path"),
            ("float-environment-seed", "environment.seed"),
            ("negative-gap-instance-seed", "environment.seed"),
            ("string-noise-scale", "environment.noise"),
            ("unknown-noise-kind", "environment.noise"),
            ("nan-shift-constant", "environment.shift"),
            ("string-theta", "environment.theta"),
            ("bool-theta", "environment.theta"),
            ("string-feature-row", "environment.features"),
            ("numeric-string-mu", "environment.mu"),
            ("bool-mu", "environment.mu"),
            ("bool-custom-table", "environment.shift"),
            ("string-custom-table", "environment.shift"),
        ],
    )
    def test_environment_errors_name_the_field(self, tmp_path, capsys, case, field):
        # validate and run each print one line that names the field, never bare "environment"
        if case == "identical-arms-file":
            (tmp_path / "feats.txt").write_text("2 3\n0.3 0.4\n0.3 0.4\n0.3 0.4\n")
            overrides = {"environment": {"kind": "features", "path": str(tmp_path / "feats.txt"), "theta": [1.0, 0.0]}}
        else:
            overrides = BAD_CONFIGS[case]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, **overrides)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1

    def test_unknown_noise_kind_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, **BAD_CONFIGS["unknown-noise-kind"])))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: environment.noise: unknown noise kind 'laplace'\n"

    def test_gap_instance_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch):
        # an environment that cannot be built in memory is a config error, named by its constructor's field
        def make_gap_instance(d, K, gap, seed):
            raise MemoryError()

        monkeypatch.setattr(harness, "make_gap_instance", make_gap_instance)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == "config error: environment.gap: MemoryError\n"

    @pytest.mark.parametrize(
        "features",
        [
            [[0.0, 0.0], [1e-11, 0.0], [0.0, 1e-11]],  # within 1e-10 of each other
            [[0.5 * 2.0**-40, 0.0], [0.0, 0.5 * 2.0**-40], [-0.5 * 2.0**-40, 0.0]],
            [[0.0, 0.0], [1e-300, 0.0], [0.0, 1e-300]],  # rows whose squared norms underflow
        ],
        ids=["1e-11-apart", "scaled-2^-40", "1e-300-apart"],
    )
    def test_arms_at_tiny_scales_run(self, tmp_path, capsys, features):
        # arms that are not identical span a direction however close they are: validate and run exit 0
        env = features_env(features=features)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env, algorithm={"horizon": 2000})))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_identical_survivors_are_declared(self, tmp_path, capsys):
        # arms 0 and 1 are equal rows; once arm 2 is eliminated they are one arm, and the
        # run declares arm 0 (exit 3 before).  The audit lists the tie
        env = features_env(features=[[0.9, 0.0], [0.9, 0.0], [0.0, 0.5]], theta=[1.0, 0.0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env, algorithm={"horizon": 20_000})))
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]]
        assert [(row[3], row[6]) for row in rows] == [("0", "1"), ("0", "1")]
        audit = json.loads((tmp_path / "out" / "manifest.json").read_text())["assumption_audit"]
        assert "best arm is not unique: gap-dependent results are undefined" in audit

    def test_mab_means_run_as_written(self, tmp_path, capsys):
        # ||mu|| > 1 and tied best means run with exit 0; the audit reports both
        env = {"kind": "mab", "mu": [0.9, 0.9, 0.5]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env, algorithm={"horizon": 300})))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        audit = json.loads((tmp_path / "out" / "manifest.json").read_text())["assumption_audit"]
        norm = math.hypot(0.9, 0.9, 0.5)
        assert audit == [f"||theta*|| = {norm:.6g} > 1", "best arm is not unique: gap-dependent results are undefined"]

    def test_noise_past_unit_scale_is_reported(self, tmp_path):
        env = features_env(noise={"kind": "gaussian", "scale": 3.0})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env, algorithm={"horizon": 300})))
        assert main(["run", "--config", str(path)]) == 0
        audit = json.loads((tmp_path / "out" / "manifest.json").read_text())["assumption_audit"]
        assert audit == [
            "gaussian noise scale 3 > 1: phase lengths, the PAC budget and beta assume unit-scale noise"
        ]

    def test_huge_feature_file_names_the_path(self, tmp_path, capsys):
        (tmp_path / "feats.txt").write_text("2 3\n1e308 0\n0 1e308\n-1e308 0\n")
        path = tmp_path / "cfg.json"
        env = {"kind": "features", "path": str(tmp_path / "feats.txt"), "theta": [1.0, 0.0]}
        path.write_text(json.dumps(base_config(tmp_path, environment=env)))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: environment.path: ")

    @pytest.mark.parametrize("case", ["noise", "theta"])
    def test_overflowing_sums_exit_3(self, tmp_path, capsys, case):
        # each draw is finite, but the estimator's sums of them are not.  The bound on
        # every sum a run forms finds them at validate: exit 2 from validate and run,
        # one line naming the field (the name is from when only the run found them)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, **BAD_CONFIGS[f"overflowing-{case}-sums"], base_seed=0)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: environment.{case}: ") and err.count("\n") == 1

    def test_singular_ridge_system_exits_3(self, tmp_path, capsys):
        # features of norm 1e9: beside their Gram matrix the regularizer vanishes, and a
        # ridge system is singular.  The bound on the Gram matrix finds them at validate:
        # exit 2 from validate and run, one line naming the features (the name is from
        # when only the run found them, with exit 3)
        env = features_env(features=[[1e9, 0.0], [0.0, 1e9], [-1e9, 0.0]], seed=0)
        raw = base_config(tmp_path, mode="error-scaling", environment=env, algorithm={"budget": 200}, base_seed=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: environment.features: has norms up to 1e+09") and err.count("\n") == 1

    @staticmethod
    def cli_process(*argv):
        """The CLI in a fresh interpreter, with Python's default warning filters: its whole stderr."""
        env = {**os.environ, "PYTHONPATH": str(Path(semibandit.__file__).resolve().parents[1])}
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run([sys.executable, "-m", "semibandit.cli", *argv], capture_output=True, text=True, env=env)

    def test_assumptions_are_reported_in_the_manifest_only(self, tmp_path):
        # features of norm 2 and ||theta*|| = 1.5 break the unit-ball assumptions: validate and
        # run succeed with nothing on stderr, and the manifest's audit lists both findings
        env = features_env(features=[[2.0, 0.0], [0.0, 0.5], [-0.5, 0.0]], theta=[1.5, 0.0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env, algorithm={"horizon": 300})))
        for command in ("validate", "run"):
            done = self.cli_process(command, "--config", str(path))
            assert (done.returncode, done.stderr) == (0, "")
        audit = json.loads((tmp_path / "out" / "manifest.json").read_text())["assumption_audit"]
        assert audit == ["||theta*|| = 1.5 > 1", "1 feature(s) with norm > 1 (max 2)"]

    def test_overflowing_values_print_one_line(self, tmp_path):
        # x theta past the largest double: validate prints its one config error line, no numpy warning
        env = features_env(features=[[1e150, 0.0], [0.0, 1e150], [-1e150, 0.0]], theta=[1e300, 1e300])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env)))
        done = self.cli_process("validate", "--config", str(path))
        assert done.returncode == 2
        assert done.stderr.startswith("config error: environment.theta: ") and done.stderr.count("\n") == 1

    def test_path_and_features_exclusive(self, tmp_path, capsys):
        # a features environment reads its rows from a file or from the config, never both
        (tmp_path / "feats.txt").write_text("2 3\n0.5 0\n0 0.5\n-0.5 0\n")
        env = features_env(path=str(tmp_path / "feats.txt"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, environment=env)))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: environment.features: ")

    def test_custom_table_as_long_as_horizon(self, tmp_path):
        table = [0.5 * math.sin(t) for t in range(1, 201)]
        raw = base_config(
            tmp_path,
            environment=features_env(shift={"kind": "custom", "table": table}),
            algorithm={"horizon": 200},
            output=str(tmp_path / "table"),
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 0
        assert len((tmp_path / "table" / "trajectory.csv").read_text().splitlines()) == 1 + 2 * 200
        manifest = json.loads((tmp_path / "table" / "manifest.json").read_text())
        assert manifest["assumption_audit"] == []

    def test_environment_built_per_validation_only(self, tmp_path, monkeypatch):
        # once, when the config is resolved; run_experiment and the
        # replications reuse that environment
        calls = []
        build = harness.build_environment
        monkeypatch.setattr(harness, "build_environment", lambda spec: calls.append(1) or build(spec))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, replications=3, algorithm={"horizon": 300})))
        assert main(["run", "--config", str(path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "option, value, field",
        [
            ("--seed", 7, "base_seed"),
            ("--reps", 3, "replications"),
            ("--out", "elsewhere", "output"),
            ("--mode", "pac", "mode"),
            ("--workers", 1, "workers"),
        ],
    )
    def test_run_options_replace_config_fields(self, tmp_path, monkeypatch, option, value, field):
        # each option replaces its field of the file before the config is resolved
        pool = spy_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        raw = base_config(tmp_path, mode="error-scaling", algorithm={"budget": 40, "epsilon": 0.25}, workers=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        if option == "--out":
            value = str(tmp_path / value)
        assert main(["run", "--config", str(path), option, str(value)]) == 0
        written = {**raw, field: value}
        out = Path(written["output"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == written and manifest["mode"] == written["mode"]
        seeds = list(range(written["base_seed"], written["base_seed"] + written["replications"]))
        assert manifest["seeds"] == seeds
        assert [int(line.split(",")[1]) for line in (out / "summary.csv").read_text().splitlines()[1:]] == seeds
        assert pool["sizes"] == ([] if written["workers"] == 1 else [2])
        assert (tmp_path / "out").exists() == (option != "--out")

    @pytest.mark.parametrize(
        "options, field",
        [
            (["--reps", "0"], "replications"),
            (["--workers", "0"], "workers"),
            (["--mode", "bai"], "mode"),
            (["--out", "a\0b"], "output"),
            (["--out", ""], "output"),
        ],
    )
    def test_bad_run_options_exit_2(self, tmp_path, capsys, monkeypatch, options, field):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["run", "--config", str(path), *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [path]  # nothing written, in the config's output or the working directory

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("value", [0, 2])
    def test_environment_path_must_be_a_string(self, tmp_path, command, value):
        # open() would take an int as a file descriptor: 0 reads standard input,
        # 2 closes standard error.  In a fresh interpreter, so no fd of this one is at stake
        path = tmp_path / "cfg.json"
        environment = {"kind": "features", "path": value, "theta": [1.0]}
        path.write_text(json.dumps(base_config(tmp_path, environment=environment)))
        code = f"import sys; from semibandit.cli import main; sys.exit(main([{command!r}, '--config', {str(path)!r}]))"
        env = {**os.environ, "PYTHONPATH": str(Path(semibandit.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=60
        )
        assert (out.returncode, out.stderr) == (2, "config error: environment.path: must be a string\n")

    def test_unwritable_output(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        path = tmp_path / "cfg.json"
        cfgdict = base_config(tmp_path, output=str(blocker / "sub"), replications=1)
        cfgdict["algorithm"]["horizon"] = 100
        path.write_text(json.dumps(cfgdict))
        assert main(["run", "--config", str(path)]) == 3


def test_algorithm_defaults_have_one_owner():
    # the Frank-Wolfe tolerance a caller leaves out is design.FW_TOL at every front door, and the PAC
    # c2 one constant of sbe: each is the same object wherever it is a default.  The modes are the
    # algorithm table's keys
    fw_defaults = {
        "g_optimal": inspect.signature(design.g_optimal).parameters["fw_tol"].default,
        "deo": inspect.signature(design.deo).parameters["fw_tol"].default,
        "SbeConfig": next(f.default for f in dataclasses.fields(SbeConfig) if f.name == "fw_tol"),
        "regret table": harness._ALGORITHM["regret"]["fw_tol"][0],
        "design-cert table": harness._ALGORITHM["design-cert"]["fw_tol"][0],
        "--fw-tol": build_parser().parse_args(["design", "features.txt"]).fw_tol,
    }
    assert {name: value is design.FW_TOL for name, value in fw_defaults.items()} == dict.fromkeys(fw_defaults, True)
    env = make_gap_instance(3, 5, 0.5, seed=1)
    run_pure_exploration(env, 50, 0.1)
    assert list(env.features._designs) == [(0, design.FW_TOL)]  # the one design pure exploration solves
    assert inspect.signature(sbe.pac_budget).parameters["c2"].default is sbe.PAC_C2
    assert harness._ALGORITHM["pac"]["c2"][0] is sbe.PAC_C2
    assert harness.MODES == tuple(harness._ALGORITHM) == ("regret", "pac", "design-cert", "error-scaling")
