"""Time the CSV cell encoder against per-cell ``%`` formatting, by column kind and by whole table.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/encode_cells.py --repeats 5

Each column is turned into ``spec % cell`` lines twice: by the writer's
formatter ``cells.rows`` (the array encoders, ``%`` only for the cells they
hand to ``cells._percent``), and by ``%`` on every cell of
``column.tolist()``.  The two texts must be equal.  The columns are fixed
draws (standard-normal and wide-range floats, small and large integers) and
the float and integer columns of replication 0 of instance 0 of each perfbench
workload at ``--seed``.  A column on its own cannot show what ``cells.rows``
spends once per block, such as a call of an encoder, so each of those
trajectory tables is also written whole, with all ten columns, and compared
with ``TRAJECTORY_LINE % row`` on every row.  Prints one JSON object: per
column, nanoseconds per cell for both (the best of ``--repeats``), and the
share of cells the encoder handed to ``%``, counted by wrapping
``cells._percent``; per table, microseconds per row for both.
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


def workload_tables(seed: int) -> dict:
    """The trajectory columns of replication 0 of each workload, by workload."""
    tables = {}
    with tempfile.TemporaryDirectory() as work:
        for name, w in instances.WORKLOADS.items():
            path = Path(work) / "config.json"
            instances.write_config(path, w, instances.make_instance(w, seed, 0), seed, str(Path(work) / "out"))
            cfg = harness.ExperimentConfig.from_file(path)
            tables[name] = harness._replication_task(cfg, 0)[0]
    return tables


def workload_columns(tables: dict) -> dict:
    """Each column of ``tables``, by "workload: column"."""
    specs = harness.TRAJECTORY_LINE.rstrip("\n").split(",")
    return {
        f"{name}: {title}": (spec, np.ascontiguousarray(column))
        for name, table in tables.items()
        for title, spec, column in zip(harness.TRAJECTORY_COLUMNS, specs, table)
    }


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


def measure_table(table, repeats: int) -> dict:
    line = harness.TRAJECTORY_LINE

    def encoded():
        return "".join(cells.rows(line, table, harness._WRITE_BLOCK))

    def per_row():
        return "".join([line % row for row in zip(*(column.tolist() for column in table))])

    assert encoded() == per_row()
    rows = len(table[0])
    return {
        "rows": rows,
        "encoder_us_per_row": round(best_seconds(encoded, repeats) / rows * 1e6, 3),
        "percent_us_per_row": round(best_seconds(per_row, repeats) / rows * 1e6, 3),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    tables = workload_tables(args.seed)
    columns = {**fixed_draws(), **workload_columns(tables)}
    result = {
        "host": {"machine": platform.machine(), "python": platform.python_version(), "numpy": np.__version__},
        "exact_long_double": cells._EXACT_LONGDOUBLE,
        "columns": {name: measure(spec, column, args.repeats) for name, (spec, column) in columns.items()},
        "tables": {name: measure_table(table, args.repeats) for name, table in tables.items()},
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
