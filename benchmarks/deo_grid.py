"""Time the anchored design ``deo`` on a fixed grid of (d, K).

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/deo_grid.py --repeats 3 --seed 0

Each grid point draws K unit feature vectors in d dimensions from the seed
and solves ``deo`` with anchor 0 and the default tolerance, ``--repeats``
times.  Prints one JSON object: per point the median and every run's wall
seconds, and the certificate of the last solve.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from semibandit.design import FeatureSet, deo

GRID = ((5, 20), (20, 200), (20, 1000), (40, 500), (50, 2000))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = {}
    for d, k in GRID:
        x = np.random.default_rng((args.seed, d, k)).standard_normal((k, d))
        features = FeatureSet(x / np.linalg.norm(x, axis=1, keepdims=True))
        runs = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            _, cert = deo(features)
            runs.append(time.perf_counter() - start)
        result[f"d={d},K={k}"] = {
            "median_s": statistics.median(runs),
            "runs_s": runs,
            "max_anchor_norm": cert.max_anchor_norm,
            "max_centered_norm": cert.max_centered_norm,
            "support_size": cert.support_size,
            "dim": cert.dim,
        }
        print(f"d={d} K={k}: {statistics.median(runs):.4f} s", flush=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
