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
``cells._percent``; per table, microseconds per row for both, the encoder
calls per block of ``harness._WRITE_BLOCK`` rows and the calls of
``cells._percent``, counted by wrapping the encoders and ``_percent``, and
the words of a laid-out row, the bytes that ``translate`` scans over 8, as
``cells._lay_out`` returns them: ``words_per_row`` is their mean over the
rows, and ``unfolded_words_per_row`` the width of a row in which every cell
has a field (each column's field words, and the newline's word).
"""

from __future__ import annotations

import argparse
import contextlib
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


@contextlib.contextmanager
def calls_of(*names):
    """The arguments and result of each call of the ``cells`` functions ``names`` while in the block, by name."""
    calls = {name: [] for name in names}
    saved = {name: getattr(cells, name) for name in names}

    def counted(name):
        def call(*args):
            result = saved[name](*args)
            calls[name].append((args, result))
            return result

        return call

    for name in names:
        setattr(cells, name, counted(name))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(cells, name, fn)


def measure(spec: str, column: np.ndarray, repeats: int) -> dict:
    line = spec + "\n"
    with calls_of("_percent") as calls:
        encoded = "".join(cells.rows(line, (column,), harness._WRITE_BLOCK))
    assert encoded == "".join([line % v for v in column.tolist()]), spec
    encoder = best_seconds(lambda: "".join(cells.rows(line, (column,), harness._WRITE_BLOCK)), repeats)
    per_cell = best_seconds(lambda: "".join([line % v for v in column.tolist()]), repeats)
    bits = column.view(np.int64)
    return {
        "spec": spec,
        "cells": int(column.size),
        "runs": int(np.count_nonzero(bits[1:] != bits[:-1]) + 1),
        "encoder_ns_per_cell": round(encoder / column.size * 1e9, 1),
        "percent_ns_per_cell": round(per_cell / column.size * 1e9, 1),
        "fallback_share": round(sum(len(args[1]) for args, _ in calls["_percent"]) / column.size, 5),
    }


def measure_table(table, repeats: int) -> dict:
    line = harness.TRAJECTORY_LINE

    def encoded():
        return "".join(cells.rows(line, table, harness._WRITE_BLOCK))

    def per_row():
        return "".join([line % row for row in zip(*(column.tolist() for column in table))])

    with calls_of("_encode_floats", "_encode_ints", "_percent", "_lay_out") as calls:
        text = encoded()
    assert text == per_row()
    rows = len(table[0])
    blocks = -(-rows // harness._WRITE_BLOCK)
    specs = line.rstrip("\n").split(",")
    return {
        "rows": rows,
        "encoder_calls_per_block": round((len(calls["_encode_floats"]) + len(calls["_encode_ints"])) / blocks, 2),
        "percent_calls": len(calls["_percent"]),
        "words_per_row": round(sum(len(args[3][0]) * words for args, words in calls["_lay_out"]) / rows, 2),
        "unfolded_words_per_row": sum(cells._encoder(spec, column)[1] for spec, column in zip(specs, table)) + 1,
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
        "columns": {name: measure(spec, column, args.repeats) for name, (spec, column) in columns.items()},
        "tables": {name: measure_table(table, args.repeats) for name, table in tables.items()},
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
