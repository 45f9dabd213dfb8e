"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of the ``semibandit`` modules
with wrappers that record one span per call (name, start, end, parent) in
memory, plus per-call counts taken from the arguments and results.  Every
module-level binding of the same function object is replaced, so calls
through ``from .design import deo`` are traced too.  ``uninstall`` puts the
originals back.  A span's self time is its duration minus its direct
children's, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name); span names are the layer metric prefixes
TRACED = (
    ("semibandit.harness", "run_experiment", "harness.run_experiment"),
    ("semibandit.harness", "compute_metrics", "harness.compute_metrics"),
    ("semibandit.harness", "build_environment", "harness.build_environment"),
    ("semibandit.sbe", "run_sbe", "sbe.run"),
    ("semibandit.sbe", "run_pure_exploration", "sbe.run"),
    ("semibandit.design", "deo", "design.deo"),
    ("semibandit.design", "g_optimal", "design.g_optimal"),
    ("semibandit.linalg", "weighted_inv_norm", "linalg.weighted_inv_norm"),
    ("semibandit.environment", "rewards_for", "environment.rewards_for"),
    ("semibandit.estimator", "update_batch", "estimator.update_batch"),
    ("semibandit.estimator", "solve", "estimator.solve"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.certificates = []  # (K, DesignCertificate) per deo call
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _count(self, name, args, result):
        c = self.counts
        c[name + ".calls"] += 1
        if name == "design.deo":
            features = args[0]
            policy, cert = result
            c["design.arms_solved"] += features.K
            c["design.support_atoms"] += cert.support_size
            self.certificates.append((features.K, cert))
        elif name == "sbe.run":
            c["sbe.phases"] += len(result[-1].phases if isinstance(result, tuple) else result.phases)
        elif name == "environment.rewards_for":
            c["environment.rounds_drawn"] += len(args[1])
        elif name == "estimator.update_batch":
            c["estimator.rows_accumulated"] += len(args[1])

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._count(name, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "semibandit" or n.startswith("semibandit.")]
        for mod_name, attr, name in TRACED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, orig in reversed(self._saved):
            setattr(mod, key, orig)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.certificates.clear()

    def totals(self):
        """Per span name: (total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own
