"""Measure, in a fresh interpreter, what a CLI invocation pays before round one.

Usage: python3 perfbench/setup_probe.py CONFIG   (with the program's src on PYTHONPATH)

Prints one JSON line: the seconds spent importing ``semibandit.cli`` and
the seconds spent in ``ExperimentConfig.from_file`` plus ``build_environment``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import semibandit.cli  # noqa: E402,F401
from semibandit.harness import ExperimentConfig, build_environment  # noqa: E402

t1 = time.perf_counter()
cfg = ExperimentConfig.from_file(sys.argv[1])
build_environment(cfg.environment)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "module": semibandit.cli.__file__}))
