"""Tests of the benchmark itself: the checks pass on real outputs and fail on corrupted ones.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import instances  # noqa: E402
import tracing  # noqa: E402
from semibandit.cli import main as cli_main  # noqa: E402
from semibandit.design import FeatureSet, deo  # noqa: E402

SEED = 3


def _policy(w, inst):
    if w.mode != "error-scaling":
        return None
    return deo(FeatureSet(inst.features), anchor=0, fw_tol=instances.FW_TOL)[0]


@pytest.fixture(scope="module", params=sorted(instances.WORKLOADS))
def smoke(request, tmp_path_factory):
    """A smoke-size CLI run of one workload: (workload, instance, config, output dir, policy)."""
    w = instances.WORKLOADS[request.param]
    inst = instances.make_instance(w, SEED)
    base = tmp_path_factory.mktemp(w.name)
    out = base / "out"
    cfg = instances.write_config(base / "config.json", w, inst, SEED, str(out), smoke=True)
    assert cli_main(["run", "--config", str(base / "config.json")]) == 0
    return w, inst, cfg, out, _policy(w, inst)


def _rewrite(src: Path, dst: Path, name: str, edit):
    shutil.copytree(src, dst)
    lines = (dst / name).read_text().splitlines(keepends=True)
    (dst / name).write_text("".join(edit(lines)))
    return dst


def _edit_cell(column, fn, pick):
    """Replace one cell of trajectory.csv, in the row ``pick`` chooses among the data rows."""
    col = checks.TRAJECTORY.index(column)

    def edit(lines):
        rows = [line.rstrip("\n").split(",") for line in lines[1:]]
        i = 1 + pick(rows, col)
        cells = lines[i].rstrip("\n").split(",")
        cells[col] = repr(fn(float(cells[col])))
        lines[i] = ",".join(cells) + "\n"
        return lines

    return edit


def _middle(rows, col):
    return len(rows) // 2


def _last_finite(rows, col):
    return max(i for i, r in enumerate(rows) if r[col] != "nan")


def test_smoke_outputs_pass(smoke):
    w, inst, cfg, out, policy = smoke
    assert checks.check_outputs(out, w, inst, cfg, policy) == []


CORRUPTIONS = {
    "reward changed": ("trajectory.csv", _edit_cell("reward", lambda v: v + 20.0, _middle)),
    "row dropped": ("trajectory.csv", lambda lines: lines[:100] + lines[101:]),
    "e_t perturbed 1e-6 relative": ("trajectory.csv", _edit_cell("e_t", lambda v: v * (1 + 1e-6), _last_finite)),
    "mean row dropped": ("trajectory_mean.csv", lambda lines: lines[:-1]),
    "final regret changed": ("summary.csv", lambda lines: [lines[0], lines[1].replace(",", ",1", 2)] + lines[2:]),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_output_fails(smoke, corruption, tmp_path):
    w, inst, cfg, out, policy = smoke
    name, edit = CORRUPTIONS[corruption]
    bad = _rewrite(out, tmp_path / "bad", name, edit)
    assert checks.check_outputs(bad, w, inst, cfg, policy) != []


def test_small_reward_change_fails_error_scaling_recompute(tmp_path):
    w = instances.WORKLOADS["error-scaling"]
    inst = instances.make_instance(w, SEED)
    out = tmp_path / "out"
    cfg = instances.write_config(tmp_path / "config.json", w, inst, SEED, str(out), smoke=True)
    assert cli_main(["run", "--config", str(tmp_path / "config.json")]) == 0
    bad = _rewrite(out, tmp_path / "bad", "trajectory.csv", _edit_cell("reward", lambda v: v + 1e-3, lambda rows, col: 5))
    errors = checks.check_outputs(bad, w, inst, cfg, _policy(w, inst))
    assert errors and all("e_t at t=" in e for e in errors)


def test_wrong_policy_fails():
    w = instances.WORKLOADS["error-scaling"]
    inst = instances.make_instance(w, SEED)
    policy = _policy(w, inst)
    assert checks.check_policy(w, inst, policy) == []
    skewed = np.full(w.K, 1e-6)
    skewed[0], skewed[1] = 0.5, 0.5 - 1e-6 * (w.K - 2)
    assert checks.check_policy(w, inst, replace(policy, probabilities=skewed)) != []
    shifted = replace(policy, probabilities=np.roll(policy.probabilities, 1))
    assert checks.check_policy(w, inst, shifted) != []


def test_certificate_bounds():
    w = replace(instances.WORKLOADS["regret-wide"], K=200, band=50)
    inst = instances.make_instance(w, SEED)
    _, cert = deo(FeatureSet(inst.features), anchor=0, fw_tol=instances.FW_TOL)
    assert checks.certificate_errors(200, cert) == []
    assert checks.certificate_errors(200, replace(cert, max_anchor_norm=2.1 * math.sqrt(cert.dim))) != []
    assert checks.certificate_errors(200, replace(cert, max_centered_norm=4.1 * math.sqrt(cert.dim))) != []
    assert checks.certificate_errors(200, replace(cert, support_size=cert.dim * (cert.dim + 1) // 2 + 2)) != []


def test_wrong_declarations_judged_against_delta():
    assert checks.declaration_errors(Counter(declared=16, wrong=1), 0.05) == []
    assert checks.declaration_errors(Counter(declared=16, wrong=9), 0.05) != []
    assert checks.declaration_errors(Counter(), 0.05) == []


def test_envelope_is_decreasing_and_positive():
    t = np.arange(1, 10_000)
    env = checks.envelope(t, 5, 0.1)
    assert (env > 0).all() and (np.diff(env) < 0).all()


def test_instance_generator_is_seeded_and_exact():
    w = instances.WORKLOADS["regret-long"]
    a = instances.make_instance(w, 7)
    b = instances.make_instance(w, 7)
    assert np.array_equal(a.features, b.features) and np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.features, instances.make_instance(w, 8).features)
    assert not np.array_equal(a.features, instances.make_instance(w, 7, index=1).features)
    vals = np.sort(a.values)
    assert abs(vals[-1] - vals[-2] - w.gap) < 1e-12 and a.best == int(np.argmax(a.values))
    assert np.linalg.norm(a.features, axis=1).max() <= 1.0 and abs(np.linalg.norm(a.theta) - 1) < 1e-12


def test_tracer_spans_add_up_and_uninstall(tmp_path):
    import semibandit.design as design
    import semibandit.harness as harness
    import semibandit.sbe as sbe

    w = instances.WORKLOADS["regret-long"]
    inst = instances.make_instance(w, SEED)
    instances.write_config(tmp_path / "config.json", w, inst, SEED, str(tmp_path / "out"), smoke=True)
    originals = (design.deo, sbe.deo, harness.deo, harness.run_experiment)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sbe.deo is design.deo and sbe.deo is not originals[0]
        rc = tracer.span("cli.main", cli_main, ["run", "--config", str(tmp_path / "config.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (design.deo, sbe.deo, harness.deo, harness.run_experiment) == originals
    total, own = tracer.totals()
    assert math.isclose(sum(own.values()), total["cli.main"], rel_tol=1e-9)
    assert tracer.counts["design.deo.calls"] == len(tracer.certificates) >= w.reps
    assert tracer.counts["environment.rounds_drawn"] == w.reps * w.smoke_length


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_result(trace):
    proc = _bench(["--workload", "error-scaling", "--seed", "2", "--seconds", "1", "--trace", trace, "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 or m["unit"] == "s" for m in result["metrics"].values())


def test_run_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "regret-long", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
