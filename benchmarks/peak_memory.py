"""Read the traced peak memory of each layer of a run: a phase, the metrics, the streamed rows, a long run.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/peak_memory.py --seed 1

A layer's peak is the most bytes that ``tracemalloc`` saw held at once during
one call, above what was held when the call began; NumPy reports its array
buffers to ``tracemalloc``, so the arrays a call makes and frees count, and
those it returns count too.  A call inside another is measured too, and the
outer call's peak still counts what the inner one held.  For replication 0
of instance 0 of each perfbench workload at ``--seed``, the layers are each
``sbe._run_phase`` call (the largest, and each phase's in order), each
``metrics.compute_metrics`` call (the largest: one block of steps), and the
stream: the replication's metrics and its trajectory text taken a block at a
time, as a run writes them, each block's text dropped once made.  The record,
the betas and the mean sums are made before the stream and do not count in it;
the record holds the phase rounds, and the declared arm's tail, a count, is
drawn in the stream a block at a time, so its draws count there.
The scale point is one pure-exploration phase of ``--rounds`` rounds
(default 200,000) over ``make_gap_instance(20, 1000, 0.2, 0)``, and the
metrics of its record, one ``compute_metrics`` call and all of its blocks;
``rows_mb`` is the size of its n x d centered rows.  The long point runs
``harness.run_experiment`` on instance 0 of ``regret-long`` at
``--long-rounds`` rounds (default 1e6) with 2 replications, inline, and gives
the peak of the run and of each ``run_sbe``, ``compute_metrics`` and
``assumption_audit`` call in it.  To measure another tree, put its ``src`` on
``PYTHONPATH``.  Prints one JSON object, every size in MB (1e6 bytes).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

import semibandit.cells  # noqa: F401  (loaded here, its module's objects are not counted in the stream's peak)
import semibandit.harness as harness
import semibandit.metrics as metrics
import semibandit.sbe as sbe
from semibandit.environment import make_gap_instance

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import instances  # noqa: E402

SCALE = {"d": 20, "K": 1000, "gap": 0.2, "seed": 0, "delta": 0.1}
LAYERS = ((sbe, "_run_phase"), (metrics, "compute_metrics"))
LONG_LAYERS = ((harness, "run_sbe"), (metrics, "compute_metrics"), (harness, "assumption_audit"))
_running = []  # the peak so far of each call being measured, outermost first


def _mb(nbytes: int) -> float:
    return round(nbytes / 1e6, 3)


def _fold() -> None:
    """Fold ``tracemalloc``'s peak since its last reset into every call being measured."""
    peak = tracemalloc.get_traced_memory()[1]
    _running[:] = [max(p, peak) for p in _running]


def _peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``, ``tracemalloc`` already tracing: the call's peak above what it began with."""
    _fold()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    _running.append(before)
    try:
        result = fn(*args, **kwargs)
    finally:
        _fold()
        peak = _running.pop()
    return result, peak - before


@contextlib.contextmanager
def traced(*targets):
    """Trace while in the block; record the peak of each call of each ``(module, name)``, in order, by name."""
    saved = {name: getattr(module, name) for module, name in targets}
    peaks = {name: [] for name in saved}

    def wrap(name):
        def call(*args, **kwargs):
            result, peak = _peak(saved[name], *args, **kwargs)
            peaks[name].append(peak)
            return result

        return call

    for module, name in targets:
        setattr(module, name, wrap(name))
    tracemalloc.start()
    try:
        yield peaks
    finally:
        tracemalloc.stop()
        for module, name in targets:
            setattr(module, name, saved[name])


def run(cfg: harness.ExperimentConfig, rep: int):
    """The record of replication ``rep`` of ``cfg`` and the betas its metrics read, as ``_replication_task`` runs it."""
    env, alg, seed = cfg.env, cfg.algorithm, cfg.base_seed + rep
    if cfg.mode == "regret":
        return sbe.run_sbe(env, sbe.SbeConfig(**alg), run_seed=seed), None
    return sbe.run_pure_exploration(env, alg["budget"], alg["delta"], run_seed=seed)[2], cfg.betas


def stream(cfg: harness.ExperimentConfig, record, betas, means) -> None:
    """Replication 0's metrics and trajectory text, a block at a time; each block's text is dropped, not written."""
    blocks = harness._trajectory_blocks(record, cfg.env, betas, 0, means)
    collections.deque(harness._stream_rows(harness.TRAJECTORY_LINE, blocks), 0)


def workload(w, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        instances.write_config(path, w, instances.make_instance(w, seed, 0), seed, str(Path(work) / "out"))
        cfg = harness.ExperimentConfig.from_file(path)
        with traced(*LAYERS) as peaks:
            record, betas = run(cfg, 0)
            means = harness._sums(record.steps)
            _, streamed = _peak(stream, cfg, record, betas, means)
    return {
        "rows": record.steps,
        "phase_mb": _mb(max(peaks["_run_phase"])),
        "phases_mb": [_mb(p) for p in peaks["_run_phase"]],
        "compute_metrics_mb": _mb(max(peaks["compute_metrics"])),
        "stream_mb": _mb(streamed),
    }


def scale_point(rounds: int) -> dict:
    env = make_gap_instance(SCALE["d"], SCALE["K"], SCALE["gap"], SCALE["seed"])
    betas = np.log(np.arange(1, rounds + 1) / SCALE["delta"])
    with traced(*LAYERS) as peaks:
        _, _, record = sbe.run_pure_exploration(env, rounds, SCALE["delta"])
        _, streamed = _peak(collections.deque, metrics.metric_blocks(record, env, betas, harness._WRITE_BLOCK), 0)
    return {
        **SCALE,
        "rounds": rounds,
        "rows_mb": _mb(rounds * SCALE["d"] * 8),
        "phase_mb": _mb(peaks["_run_phase"][0]),
        "compute_metrics_mb": _mb(max(peaks["compute_metrics"])),
        "metrics_mb": _mb(streamed),
    }


def long_point(rounds: int, seed: int) -> dict:
    w = instances.WORKLOADS["regret-long"]
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        raw = instances.write_config(path, w, instances.make_instance(w, seed, 0), seed, str(Path(work) / "out"))
        cfg = harness.ExperimentConfig.from_dict({**raw, "algorithm": {**raw["algorithm"], "horizon": rounds},
                                                  "replications": 2, "workers": 1})
        with traced(*LONG_LAYERS) as peaks:
            _, whole = _peak(harness.run_experiment, cfg)
    return {
        "d": w.d,
        "K": w.K,
        "rounds": rounds,
        "replications": 2,
        "run_experiment_mb": _mb(whole),
        **{f"{name}_mb": _mb(max(values)) for name, values in peaks.items()},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=200_000)
    parser.add_argument("--long-rounds", type=int, default=1_000_000)
    args = parser.parse_args(argv)
    result = {
        "host": {"machine": platform.machine(), "python": platform.python_version(), "numpy": np.__version__},
        "seed": args.seed,
        "workloads": {name: workload(w, args.seed) for name, w in instances.WORKLOADS.items()},
        "scale": scale_point(args.rounds),
        "long": long_point(args.long_rounds, args.seed),
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
