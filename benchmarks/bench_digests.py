"""Print the sha256 of the CSVs of every perfbench instance, to compare two source trees byte for byte.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/bench_digests.py --seeds 1 7 --workers 1 2

For each seed, each perfbench workload and each of its instances, and each
worker count, the instance's config (``perfbench/instances.py``) is run by
``semibandit.cli.main(["run", ...])`` in this process, and one line is
printed per CSV: workload, instance, seed, workers, file name and sha256.
Point ``PYTHONPATH`` at another tree's ``src`` to print that tree's lines;
two trees write the same bytes exactly when their lines are equal.
``--smoke`` runs each workload at its small size.  ``--noise-free`` sets each
config's noise to ``{"kind": "none"}``: two trees whose noise-free lines are
equal differ at most in the noise they draw.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import instances  # noqa: E402

CSVS = ("trajectory.csv", "trajectory_mean.csv", "summary.csv")


def digests(seeds, workers, smoke: bool = False, noise_free: bool = False):
    """Yield ``(workload, instance, seed, workers, file, sha256)`` for every run, in a fixed order."""
    from semibandit.cli import main

    with tempfile.TemporaryDirectory() as work:
        config, out = Path(work) / "config.json", Path(work) / "out"
        for seed in seeds:
            for name, w in instances.WORKLOADS.items():
                for index in range(w.n_instances):
                    instance = instances.make_instance(w, seed, index)
                    cfg = instances.write_config(config, w, instance, seed, str(out), smoke)
                    if noise_free:
                        cfg["environment"]["noise"] = {"kind": "none"}
                        config.write_text(json.dumps(cfg))
                    for count in workers:
                        argv = ["run", "--config", str(config), "--workers", str(count)]
                        with contextlib.redirect_stdout(io.StringIO()):
                            code = main(argv)
                        if code != 0:
                            raise RuntimeError(f"{name} instance {index} seed {seed}: exit {code}")
                        for file in CSVS:
                            yield name, index, seed, count, file, hashlib.sha256((out / file).read_bytes()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workers", type=int, nargs="+", default=[1])
    parser.add_argument("--smoke", action="store_true", help="each workload at its small size")
    parser.add_argument("--noise-free", action="store_true", help='each config with noise {"kind": "none"}')
    args = parser.parse_args(argv)
    for row in digests(args.seeds, args.workers, args.smoke, args.noise_free):
        print(*row)


if __name__ == "__main__":
    main()
