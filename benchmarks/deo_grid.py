"""Time the anchored design ``deo`` on a fixed grid of (d, K).

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/deo_grid.py --repeats 3 --seed 0

Each grid point draws K unit feature vectors in d dimensions from the seed
and solves ``deo`` with anchor 0 and the default tolerance, ``--repeats``
times.  Prints one JSON object: per point the median and every run's wall
seconds, the Frank-Wolfe iterations of the last solve, and its certificate.
The iterations are counted here, by wrapping the solver's private loop
``design._pairwise_fw_from``; they include the polishes of a support drop.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

import semibandit.design as design
from semibandit.design import FeatureSet, deo

GRID = ((5, 20), (20, 200), (20, 1000), (40, 500), (50, 2000))


def count_fw_iterations(counts: list) -> None:
    """Append the iteration count of every pairwise Frank-Wolfe run to ``counts``."""
    loop = design._pairwise_fw_from

    def counted(*args, **kwargs):
        result = loop(*args, **kwargs)
        counts.append(result[2])
        return result

    design._pairwise_fw_from = counted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = {}
    iterations = []
    count_fw_iterations(iterations)
    for d, k in GRID:
        x = np.random.default_rng((args.seed, d, k)).standard_normal((k, d))
        features = FeatureSet(x / np.linalg.norm(x, axis=1, keepdims=True))
        runs = []
        for _ in range(args.repeats):
            iterations.clear()
            start = time.perf_counter()
            _, cert = deo(features)
            runs.append(time.perf_counter() - start)
        result[f"d={d},K={k}"] = {
            "median_s": statistics.median(runs),
            "runs_s": runs,
            "fw_iterations": sum(iterations),
            "max_anchor_norm": cert.max_anchor_norm,
            "max_centered_norm": cert.max_centered_norm,
            "support_size": cert.support_size,
            "dim": cert.dim,
        }
        print(f"d={d} K={k}: {statistics.median(runs):.4f} s, {sum(iterations)} FW iterations", flush=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
