"""Time the anchored design ``deo`` on a fixed grid of (d, K), or over random draws.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/deo_grid.py --repeats 3 --seed 0
    PYTHONPATH=src python3 benchmarks/deo_grid.py --draws 20

Each grid point draws K unit feature vectors in d dimensions from the seed
and solves ``deo`` with anchor 0 and the default tolerance, ``--repeats``
times, each on a fresh ``FeatureSet`` of the same rows: ``deo`` keeps its
result on the object it is given, so a second call on one object would
time a lookup.  Prints one JSON object: per point the median and every run's wall
seconds, the median wall seconds of the Carathéodory reduction, the median
Frank-Wolfe seconds per iteration, the Frank-Wolfe iterations, the
reduction's atoms in and out and its QR factorizations in the last solve,
and the certificate.

``--draws N`` instead solves ``deo`` once on each of N draws at
(d, K) = (20, 1000), the grid's draw for seeds 0..N-1, and prints the sums
of the ``deo`` and reduction seconds over them, the number of draws whose
Frank-Wolfe support is over the d(d+1)/2 bound, and each draw's record.

The iterations, their seconds and the reduction are measured here, by wrapping the
solver's private functions ``design._pairwise_fw_from`` and
``design._caratheodory_reduce``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import time

import numpy as np

import semibandit.design as design
from semibandit.design import FeatureSet, deo

GRID = ((5, 20), (20, 200), (20, 1000), (40, 500), (50, 2000))
DRAW = (20, 1000)


@contextlib.contextmanager
def instrumented(fw_runs: list, reductions: list):
    """While active, append every pairwise FW run's ``(iterations, seconds)`` and every reduction's record.

    A reduction's record holds its wall seconds, its atoms in and out, and
    the ``np.linalg.qr`` calls it made.
    """
    loop, reduce, qr = design._pairwise_fw_from, design._caratheodory_reduce, np.linalg.qr

    def counted(*args, **kwargs):
        start = time.perf_counter()
        result = loop(*args, **kwargs)
        fw_runs.append((result[2], time.perf_counter() - start))
        return result

    def timed(x, p):
        record = {"atoms_in": int(np.count_nonzero(p)), "factorizations": 0}

        def counted_qr(*args, **kwargs):
            record["factorizations"] += 1
            return qr(*args, **kwargs)

        np.linalg.qr = counted_qr
        start = time.perf_counter()
        try:
            reduced = reduce(x, p)
        finally:
            np.linalg.qr = qr
        record["reduce_s"] = time.perf_counter() - start
        record["atoms_out"] = int(np.count_nonzero(reduced))
        reductions.append(record)
        return reduced

    design._pairwise_fw_from, design._caratheodory_reduce = counted, timed
    try:
        yield
    finally:
        design._pairwise_fw_from, design._caratheodory_reduce = loop, reduce


def unit_rows(seed: int, d: int, k: int) -> np.ndarray:
    x = np.random.default_rng((seed, d, k)).standard_normal((k, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def grid(repeats: int, seed: int) -> dict:
    result = {}
    fw_runs, reductions = [], []
    with instrumented(fw_runs, reductions):
        for d, k in GRID:
            rows = unit_rows(seed, d, k)
            runs, reduce_runs, step_runs = [], [], []
            for _ in range(repeats):
                fw_runs.clear()
                reductions.clear()
                features = FeatureSet(rows)
                start = time.perf_counter()
                _, cert = deo(features)
                runs.append(time.perf_counter() - start)
                reduce_runs.append(sum(r["reduce_s"] for r in reductions))
                iterations = sum(n for n, _ in fw_runs)
                step_runs.append(sum(s for _, s in fw_runs) / iterations)
            result[f"d={d},K={k}"] = {
                "median_s": statistics.median(runs),
                "runs_s": runs,
                "reduce_median_s": statistics.median(reduce_runs),
                "fw_s_per_iteration": statistics.median(step_runs),
                "fw_iterations": iterations,
                "reduce_atoms_in": sum(r["atoms_in"] for r in reductions),
                "reduce_atoms_out": sum(r["atoms_out"] for r in reductions),
                "reduce_factorizations": sum(r["factorizations"] for r in reductions),
                "max_anchor_norm": cert.max_anchor_norm,
                "max_centered_norm": cert.max_centered_norm,
                "support_size": cert.support_size,
                "dim": cert.dim,
            }
            print(
                f"d={d} K={k}: {statistics.median(runs):.4f} s, reduction {statistics.median(reduce_runs):.4f} s, "
                f"{iterations} FW iterations at {statistics.median(step_runs) * 1e6:.1f} us",
                flush=True,
            )
    return result


def draws(n: int) -> dict:
    d, k = DRAW
    per_draw, reductions = [], []
    with instrumented([], reductions):
        for seed in range(n):
            features = FeatureSet(unit_rows(seed, d, k))
            reductions.clear()
            start = time.perf_counter()
            deo(features)
            per_draw.append({"seed": seed, "deo_s": time.perf_counter() - start, **reductions[0]})
    return {
        "draws": n,
        "d": d,
        "K": k,
        "deo_s": sum(r["deo_s"] for r in per_draw),
        "reduce_s": sum(r["reduce_s"] for r in per_draw),
        "over_bound": sum(r["atoms_in"] > d * (d + 1) // 2 for r in per_draw),
        "factorizations": sum(r["factorizations"] for r in per_draw),
        "per_draw": per_draw,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=0, help="sum over this many (20, 1000) draws instead of the grid")
    args = parser.parse_args(argv)
    print(json.dumps(draws(args.draws) if args.draws else grid(args.repeats, args.seed)))


if __name__ == "__main__":
    main()
