"""Time a long-horizon, two-worker run and read the peak memory of its processes.

Run from the root of a checkout:

    python3 benchmarks/stream_pool.py --repeats 3 --seed 1

The instance is instance 0 of perfbench's ``--workload`` (default
``regret-long``: d=5, K=20, gap 0.2, the sine shift) at ``--seed``, run at
``--horizon`` rounds (default 1e5; the budget of ``error-scaling``) with
``--reps`` replications (default 8) on ``--workers`` processes (default 2),
where perfbench pins one worker.  Each repetition is
``semibandit.cli.main(["run", ...])`` in a fresh interpreter, which reports
its wall seconds, its own peak RSS (``RUSAGE_SELF``: the parent of the pool)
and that of its largest child (``RUSAGE_CHILDREN``: a pool worker).
``--src`` names the source tree to import (default: this checkout's
``src``), so two trees can be measured by the same script.  Prints one JSON
object: per repetition and the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import instances  # noqa: E402

CHILD = """
import json, resource, sys, time
start = time.perf_counter()
from semibandit.cli import main
rc = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
run_s = time.perf_counter() - start
print(json.dumps({
    "rc": rc,
    "run_s": run_s,
    "parent_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
}))
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="regret-long", choices=sorted(instances.WORKLOADS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--horizon", type=int, default=100_000)
    parser.add_argument("--reps", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()

    w = instances.WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix="stream_pool-"))
    try:
        config = work / "config.json"
        cfg = instances.write_config(config, w, instances.make_instance(w, args.seed, 0), args.seed, str(work / "out"))
        cfg["algorithm"][w.length_key] = args.horizon
        cfg["replications"] = args.reps
        cfg["workers"] = args.workers
        config.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=args.src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        runs = []
        for _ in range(args.repeats):
            shutil.rmtree(work / "out", ignore_errors=True)
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(config), str(work / "out")],
                env=env, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            if runs[-1]["rc"] != 0:
                raise SystemExit(f"the run exited {runs[-1]['rc']}: {proc.stderr.strip()[-500:]}")
            print(runs[-1], file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "config": {
            "workload": args.workload, "horizon": args.horizon, "replications": args.reps, "workers": args.workers,
            "seed": args.seed,
        },
        "runs": runs,
        "median": {k: statistics.median(r[k] for r in runs) for k in ("run_s", "parent_peak_rss_mb", "children_peak_rss_mb")},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
