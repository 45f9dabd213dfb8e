"""Time the CSV cell encoder against per-cell ``%`` formatting, by column kind.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/encode_cells.py --repeats 5

Each column is turned into ``spec % cell`` lines twice: by the writer's
formatter ``cells.rows`` (the array encoders, ``%`` only for the cells they
hand to ``cells._percent``), and by ``%`` on every cell of
``column.tolist()``.  The two texts must be equal.  The columns are fixed
draws (standard-normal and wide-range floats, small and large integers) and
the float and integer columns of replication 0 of instance 0 of each perfbench
workload at ``--seed``.  Prints one JSON object: per column, nanoseconds per
cell for both (the best of ``--repeats``), and the share of cells the encoder
handed to ``%``, counted by wrapping ``cells._percent``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import semibandit.cells as cells
import semibandit.harness as harness

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import instances  # noqa: E402

N = 30_000  # cells per fixed draw


def fixed_draws() -> dict:
    rng = np.random.default_rng(0)
    return {
        "normal floats": ("%.17g", rng.standard_normal(N)),
        "floats 1e-3..1e6": ("%.17g", rng.standard_normal(N) * 10.0 ** rng.uniform(-3, 6, N)),
        "ints 0..3e4 (t)": ("%d", np.arange(1, N + 1)),
        "ints 0..2^62": ("%d", rng.integers(0, 2**62, N)),
    }


def workload_columns(seed: int) -> dict:
    """The trajectory columns of replication 0 of each workload, by "workload: column"."""
    columns = {}
    with tempfile.TemporaryDirectory() as work:
        for name, w in instances.WORKLOADS.items():
            path = Path(work) / "config.json"
            instances.write_config(path, w, instances.make_instance(w, seed, 0), seed, str(Path(work) / "out"))
            cfg = harness.ExperimentConfig.from_file(path)
            table, _, _ = harness._replication_task(cfg, 0)
            specs = harness.TRAJECTORY_LINE.rstrip("\n").split(",")
            for title, spec, column in zip(harness.TRAJECTORY_COLUMNS, specs, table):
                columns[f"{name}: {title}"] = (spec, np.ascontiguousarray(column))
    return columns


def best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(spec: str, column: np.ndarray, repeats: int) -> dict:
    line = spec + "\n"
    encoded = "".join(cells.rows(line, (column,), harness._WRITE_BLOCK))
    assert encoded == "".join([line % v for v in column.tolist()]), spec
    handed = []
    percent = cells._percent

    def counted(spec, values, words=0):
        handed.append(len(values))
        return percent(spec, values, words)

    cells._percent = counted
    try:
        "".join(cells.rows(line, (column,), harness._WRITE_BLOCK))
    finally:
        cells._percent = percent
    encoder = best_seconds(lambda: "".join(cells.rows(line, (column,), harness._WRITE_BLOCK)), repeats)
    per_cell = best_seconds(lambda: "".join([line % v for v in column.tolist()]), repeats)
    bits = column.view(np.int64)
    return {
        "spec": spec,
        "cells": int(column.size),
        "runs": int(np.count_nonzero(bits[1:] != bits[:-1]) + 1),
        "encoder_ns_per_cell": round(encoder / column.size * 1e9, 1),
        "percent_ns_per_cell": round(per_cell / column.size * 1e9, 1),
        "fallback_share": round(sum(handed) / column.size, 5),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    columns = {**fixed_draws(), **workload_columns(args.seed)}
    result = {
        "host": {"machine": platform.machine(), "python": platform.python_version(), "numpy": np.__version__},
        "exact_long_double": cells._EXACT_LONGDOUBLE,
        "columns": {name: measure(spec, column, args.repeats) for name, (spec, column) in columns.items()},
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
