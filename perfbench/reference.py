"""Drift correction: time a fixed reference computation around each repetition.

The host's speed drifts in spells of seconds, so one repetition's raw
seconds say as much about the host as about the program.  Each timed
repetition is therefore bracketed by two timings of a fixed computation
that mixes the kinds of work the program does (float formatting and
arithmetic in pure Python, small dense NumPy solves, leverage sums over a
(1000, 20) array as in the design solver), and reported as

    corrected = raw / mean(ref_before, ref_after) * REF_NOMINAL_S

where REF_NOMINAL_S is the reference's median time on the machine the
README's figures come from.  A change that slows the reference itself
(say, by leaving threads busy) shows in ``ref_s``, printed beside each
corrected figure.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REF_NOMINAL_S = 0.043
# the set-up probes run in fresh interpreters, whose import time follows the
# host's file and page-mapping costs rather than the in-process reference, so
# they are bracketed by a fresh interpreter importing a fixed set of modules
INTERPRETER_REF_NOMINAL_S = 0.085
_INTERPRETER_REF = (
    "import time; t = time.perf_counter(); "
    "import argparse, concurrent.futures, dataclasses, json, numpy; print(time.perf_counter() - t)"
)

_A = np.eye(5) * 4.0 + np.arange(25.0).reshape(5, 5) / 50.0
_B = np.arange(5.0)
_X = np.sin(np.arange(20_000.0)).reshape(1000, 20)
_M = np.eye(20) + 0.01


def reference_work() -> float:
    """About equal parts of float formatting, small solves and (1000, 20) leverage sums."""
    acc = 0.0
    cells = []
    for i in range(15_000):
        v = (i * 0.37) ** 0.5 + acc * 1e-9
        acc += v
        cells.append("%.17g" % v)
    x = _B
    for _ in range(1000):
        x = np.linalg.solve(_A, x + 1.0)
    lev = 0.0
    for _ in range(25):
        lev += float(np.einsum("ij,jk,ik->i", _X, _M, _X).max())
    return acc + len(",".join(cells)) + float(x.sum()) + lev


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def timed(fn):
    """Run ``fn`` between two reference timings.

    Returns ``(result, raw_s, ref_s, corrected_s)`` where ``ref_s`` is the
    mean of the two reference timings.
    """
    before = time_reference()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    ref = 0.5 * (before + time_reference())
    return result, raw, ref, raw / ref * REF_NOMINAL_S


def time_interpreter_reference() -> float:
    """Seconds a fresh interpreter spends importing a fixed set of modules (stdlib and NumPy)."""
    proc = subprocess.run([sys.executable, "-c", _INTERPRETER_REF], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)
