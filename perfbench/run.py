#!/usr/bin/env python3
"""Benchmark of the semibandit CLI: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload regret-long --seed 1 --seconds 20 --trace 0

Each operation is one ``semibandit.cli.main(["run", "--config", ...])`` call
in this process, from a config file to a complete output directory.  The
instance comes from ``--seed``; the program sees only the generated config.
Every output is checked (see checks.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  README.md explains each.
"""

import os

# one BLAS thread: the host has two cores and a second thread only adds noise
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CSVS = ("trajectory.csv", "trajectory_mean.csv", "summary.csv")
SETUP_PROBES = 7  # timed fresh-interpreter set-ups per run, after one warm-up (byte-code caches)
MIN_REPS = 3  # timed CLI runs per run, however short --seconds is


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="use the workload's small size (tests)")
    return p.parse_args(argv)


def _from_src(path) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_probes(config: Path, n: int) -> list:
    """``n`` fresh-interpreter set-ups after one warm-up, each between two interpreter references.

    Each probe's dict gains ``ref_s``, the mean of the references just
    before and just after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    refs, probes = [], []
    for _ in range(n + 1):
        refs.append(reference.time_interpreter_reference())
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not _from_src(out["module"]):
            raise RuntimeError(f"setup probe imported {out['module']}, not the checkout's src")
        probes.append(out)
    refs.append(reference.time_interpreter_reference())
    for i, p in enumerate(probes):
        p["ref_s"] = 0.5 * (refs[i] + refs[i + 1])
    return probes[1:]


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in CSVS:
        with open(out_dir / name, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def dir_mb(out_dir: Path) -> float:
    return sum(f.stat().st_size for f in out_dir.iterdir()) / 1e6


def cli_run(main, config: Path, out: Path) -> int:
    """One operation: the CLI from a config file to an output directory; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(["run", "--config", str(config), "--out", str(out)])
        except Exception as exc:  # a traceback is a failed operation (exit 1), not a crashed benchmark
            print(f"operation raised {exc!r}", file=sys.stderr)
            return 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semibandit" / "cli.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = instances.WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = work / "out"
        insts, configs = [], []
        for j in range(w.n_instances):
            insts.append(instances.make_instance(w, args.seed, j))
            configs.append(work / f"config-{j}.json")
            # the configs differ only in the instance, which the checks take from insts;
            # keeping one dict keeps the other instances' feature lists out of peak_rss_mb
            cfg = instances.write_config(configs[j], w, insts[j], args.seed, str(out), smoke=args.smoke)
        kept = [work / f"checked-{j}" for j in range(w.n_instances)]
        deadline = time.perf_counter() + args.seconds

        probes = setup_probes(configs[0], SETUP_PROBES)

        import semibandit.cli
        import semibandit.design

        if not _from_src(semibandit.cli.__file__):
            print(f"imported {semibandit.cli.__file__}, not the checkout's src", file=sys.stderr)
            return 2
        cli_main = semibandit.cli.main

        # untimed warm-up on instance 0.  The first output of each instance is
        # kept and checked in full after timing; later ones must equal it byte for byte.
        attempted, failed = 1, 0
        if cli_run(cli_main, configs[0], kept[0]) != 0:
            print("warm-up operation failed", file=sys.stderr)
            return 3
        expected = {0: digest(kept[0])}
        mismatched = 0

        tracer = tracing.Tracer() if args.trace else None
        per_instance = 2 if tracer else 1  # a traced repetition follows each plain one, on the same instance
        plain, traced = [], []
        while attempted - 1 < MIN_REPS * per_instance or time.perf_counter() < deadline:
            j = (attempted - 1) // per_instance % w.n_instances
            trace_this = tracer is not None and (attempted - 1) % 2 == 1
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            if trace_this:
                tracer.reset()
                tracer.install()
                try:
                    rc, raw, ref, _ = reference.timed(lambda: tracer.span("cli.main", cli_run, cli_main, configs[j], out))
                finally:
                    tracer.uninstall()
            else:
                rc, raw, ref, corrected = reference.timed(lambda: cli_run(cli_main, configs[j], out))
            attempted += 1
            print(f"rep {attempted - 1} instance {j} {'traced' if trace_this else 'plain'} rc {rc} raw_s {raw:.5f} ref_s {ref:.5f}", file=sys.stderr)
            if rc != 0:
                failed += 1
                continue
            if trace_this:
                total, own = tracer.totals()
                traced.append((raw, total, own, dict(tracer.counts), list(tracer.certificates)))
            else:
                plain.append((raw, ref, corrected, dir_mb(out)))
            if j not in expected:
                out.rename(kept[j])
                expected[j] = digest(kept[j])
            elif digest(out) != expected[j]:
                mismatched += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not plain or (tracer and not traced):
            print("no operation succeeded", file=sys.stderr)
            return 3

        errors, tally = [], collections.Counter()
        for j in sorted(expected):
            policy = None
            if w.mode == "error-scaling":
                feats = semibandit.design.FeatureSet(insts[j].features)
                policy, _ = semibandit.design.deo(feats, anchor=0, fw_tol=instances.FW_TOL)
            errors += [f"instance {j}: {e}" for e in checks.check_outputs(kept[j], w, insts[j], cfg, policy, tally)]
        errors += checks.declaration_errors(tally, w.delta)
        if tally["declared"]:
            print(f"declarations: {tally['declared']}, of a suboptimal arm: {tally['wrong']}", file=sys.stderr)
        if mismatched:
            errors.append(f"{mismatched} repetitions wrote outputs that differ from their instance's checked one")
        for rec in traced:
            for k, cert in rec[4]:
                errors += checks.certificate_errors(k, cert)
        for e in errors[:20]:
            print("CHECK FAILED:", e, file=sys.stderr)

        setup_raw = [p["import_s"] + p["config_s"] for p in probes]
        setup_corr = [s / p["ref_s"] * reference.INTERPRETER_REF_NOMINAL_S for s, p in zip(setup_raw, probes)]
        if tracer is None:
            metrics = {
                "run_s": (statistics.median([r[2] for r in plain]), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "output_mb": (statistics.median([r[3] for r in plain]), "MB"),
                "setup_s": (statistics.median(setup_corr), "s"),
            }
            print(
                f"run_s {metrics['run_s'][0]:.4f} s corrected, raw {statistics.median([r[0] for r in plain]):.4f} s, "
                f"ref {statistics.median([r[1] for r in plain]):.4f} s (nominal {reference.REF_NOMINAL_S} s), "
                f"{len(plain)} repetitions over {len(expected)} instances; setup_s raw {statistics.median(setup_raw):.4f} s, "
                f"ref {statistics.median([p['ref_s'] for p in probes]):.4f} s, {len(probes)} probes"
            )
        else:
            metrics = layer_metrics(traced, plain, probes, kept[0])
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def layer_metrics(traced, plain, probes, kept: Path) -> dict:
    """Per-layer figures: medians over the traced repetitions, in raw seconds."""

    def med(fn):
        return statistics.median([fn(total, own, counts) for _, total, own, counts, _ in traced])

    def total_s(name):
        return med(lambda total, own, counts: total.get(name, 0.0))

    def self_s(name):
        return med(lambda total, own, counts: own.get(name, 0.0))

    def count(name):
        return med(lambda total, own, counts: counts.get(name, 0))

    rows = 0
    for name in CSVS:
        with open(kept / name, "rb") as fh:
            rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    traced_s = statistics.median([r[0] for r in traced])
    return {
        "trace.run_s": (total_s("cli.main"), "s"),
        "trace.overhead_s": (traced_s - statistics.median([r[0] for r in plain]), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "harness.write_s": (self_s("harness.run_experiment"), "s"),
        "harness.rows_written": (rows, "count"),
        "harness.compute_metrics_s": (total_s("harness.compute_metrics"), "s"),
        "harness.build_environment_calls": (count("harness.build_environment.calls"), "count"),
        "harness.build_environment_s": (total_s("harness.build_environment"), "s"),
        "sbe.run_s": (total_s("sbe.run"), "s"),
        "sbe.self_s": (self_s("sbe.run"), "s"),
        "sbe.phases": (count("sbe.phases"), "count"),
        "design.deo_s": (total_s("design.deo"), "s"),
        "design.deo_calls": (count("design.deo.calls"), "count"),
        "design.arms_solved": (count("design.arms_solved"), "count"),
        "design.g_optimal_s": (total_s("design.g_optimal"), "s"),
        "design.certificate_s": (med(lambda total, own, counts: total.get("design.deo", 0.0) - total.get("design.g_optimal", 0.0)), "s"),
        "design.support_atoms": (count("design.support_atoms"), "count"),
        "linalg.weighted_inv_norm_calls": (count("linalg.weighted_inv_norm.calls"), "count"),
        "linalg.weighted_inv_norm_s": (total_s("linalg.weighted_inv_norm"), "s"),
        "environment.rewards_for_s": (total_s("environment.rewards_for"), "s"),
        "environment.rounds_drawn": (count("environment.rounds_drawn"), "count"),
        "estimator.update_batch_s": (total_s("estimator.update_batch"), "s"),
        "estimator.rows_accumulated": (count("estimator.rows_accumulated"), "count"),
        "estimator.solve_s": (total_s("estimator.solve"), "s"),
        "estimator.solve_calls": (count("estimator.solve.calls"), "count"),
        "setup.import_s": (statistics.median([p["import_s"] for p in probes]), "s"),
        "setup.config_s": (statistics.median([p["config_s"] for p in probes]), "s"),
    }


if __name__ == "__main__":
    sys.exit(main())
