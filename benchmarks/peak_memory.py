"""Read the traced peak memory of each layer of a run: a phase, the metrics, and the writer's blocks.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/peak_memory.py --seed 1

A layer's peak is the most bytes that ``tracemalloc`` saw held at once during
one call, above what was held when the call began; NumPy reports its array
buffers to ``tracemalloc``, so the arrays a call makes and frees count, and
those it returns count too.  For replication 0 of instance 0 of each perfbench
workload at ``--seed``, the layers are each ``sbe._run_phase`` call (the
largest, and each phase's in order), ``harness.compute_metrics``, and the
writer turning the trajectory columns into text, ``harness._WRITE_BLOCK``
rows at a time, each block's text dropped as the writer drops it once
written.  The scale point is one pure-exploration phase of ``--rounds``
rounds (default 200,000) over ``make_gap_instance(20, 1000, 0.2, 0)``, and
``compute_metrics`` on its record; ``rows_mb`` is the size of its n x d
centered rows.  To measure another tree, put its ``src`` on ``PYTHONPATH``.
Prints one JSON object, every size in MB (1e6 bytes).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

import semibandit.cells  # noqa: F401  (loaded here, its module's objects are not counted in the writer's peak)
import semibandit.harness as harness
import semibandit.sbe as sbe
from semibandit.environment import make_gap_instance

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import instances  # noqa: E402

SCALE = {"d": 20, "K": 1000, "gap": 0.2, "seed": 0, "delta": 0.1}
LAYERS = ((sbe, "_run_phase"), (harness, "compute_metrics"))


def _mb(nbytes: int) -> float:
    return round(nbytes / 1e6, 3)


def _peak(fn, *args):
    """``(fn(*args), peak)`` with ``tracemalloc`` already tracing: the call's peak above what it began with."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - before


@contextlib.contextmanager
def traced(*targets):
    """Trace while in the block; record the peak of each call of each ``(module, name)``, in order, by name."""
    saved = {name: getattr(module, name) for module, name in targets}
    peaks = {name: [] for name in saved}

    def wrap(name):
        def call(*args):
            result, peak = _peak(saved[name], *args)
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


def write_blocks(columns) -> None:
    """The trajectory rows as the writer makes them, a block's text at a time; each is dropped, not written."""
    for _ in harness._format_rows(harness.TRAJECTORY_LINE, columns):
        pass



def workload(w, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        instances.write_config(path, w, instances.make_instance(w, seed, 0), seed, str(Path(work) / "out"))
        cfg = harness.ExperimentConfig.from_file(path)
        with traced(*LAYERS) as peaks:
            columns = harness._replication_task(cfg, 0)[0]
            _, writer = _peak(write_blocks, columns)
    return {
        "rows": len(columns[0]),
        "phase_mb": _mb(max(peaks["_run_phase"])),
        "phases_mb": [_mb(p) for p in peaks["_run_phase"]],
        "compute_metrics_mb": _mb(peaks["compute_metrics"][0]),
        "writer_block_mb": _mb(writer),
    }


def scale_point(rounds: int) -> dict:
    env = make_gap_instance(SCALE["d"], SCALE["K"], SCALE["gap"], SCALE["seed"])
    betas = np.log(np.arange(1, rounds + 1) / SCALE["delta"])
    with traced(*LAYERS) as peaks:
        _, _, record = sbe.run_pure_exploration(env, rounds, SCALE["delta"])
        harness.compute_metrics(record, env, betas)
    return {
        **SCALE,
        "rounds": rounds,
        "rows_mb": _mb(rounds * SCALE["d"] * 8),
        "phase_mb": _mb(peaks["_run_phase"][0]),
        "compute_metrics_mb": _mb(peaks["compute_metrics"][0]),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=200_000)
    args = parser.parse_args(argv)
    result = {
        "host": {"machine": platform.machine(), "python": platform.python_version(), "numpy": np.__version__},
        "seed": args.seed,
        "workloads": {name: workload(w, args.seed) for name, w in instances.WORKLOADS.items()},
        "scale": scale_point(args.rounds),
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
