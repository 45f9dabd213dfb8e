import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import semibandit.design as design

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deo_grid_smoke(capsys):
    # the script wraps the solver's private functions by name: a rename
    # breaks this run, not just the numbers it prints
    script = load_script("deo_grid")
    loop, reduce = design._pairwise_fw_from, design._caratheodory_reduce
    script.main(["--repeats", "2"])
    assert (design._pairwise_fw_from, design._caratheodory_reduce) == (loop, reduce)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(result) == [f"d={d},K={k}" for d, k in script.GRID]
    for point in result.values():
        d = point["dim"]
        assert point["support_size"] <= d * (d + 1) // 2 + 1
        assert point["max_anchor_norm"] <= 2 * math.sqrt(d) * (1 + 1e-3)
        assert point["fw_iterations"] > 0
        assert point["fw_s_per_iteration"] > 0
        assert point["reduce_atoms_out"] <= min(point["reduce_atoms_in"], d * (d + 1) // 2)


def test_encode_cells_smoke(capsys):
    # the script runs a replication of each perfbench workload through the
    # harness's private task and asserts the encoder's text equals %'s
    script = load_script("encode_cells")
    script.main(["--repeats", "1"])
    result = json.loads(capsys.readouterr().out)
    workloads = {name.split(": ")[0] for name in result["columns"] if ": " in name}
    assert workloads == set(script.instances.WORKLOADS)
    for column in result["columns"].values():
        assert column["cells"] > 0 and 0 <= column["fallback_share"] <= 1
    # and each workload's table written whole, its bytes compared with % on every row
    assert set(result["tables"]) == set(script.instances.WORKLOADS)
    for table in result["tables"].values():
        assert table["rows"] > 0 and table["encoder_us_per_row"] > 0 and table["percent_us_per_row"] > 0
        # one call per encoder a block: every trajectory float has 4-word fields, every int here 1-word ones
        assert table["encoder_calls_per_block"] == 2 and table["percent_calls"] >= 0
        # a row whose constant columns are laid out as literals is no wider than one of a field per cell
        assert 0 < table["words_per_row"] <= table["unfolded_words_per_row"]
    # where one arm is played to the horizon, most columns are constant over a block
    assert result["tables"]["regret-long"]["words_per_row"] < result["tables"]["regret-long"]["unfolded_words_per_row"]
    assert "exact_long_double" not in result


def bench_digest_lines(capsys, script, *flags):
    script.main(["--smoke", "--seeds", "1", "--workers", "1", "2", *flags])
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_bench_digests_smoke(capsys):
    # one line per CSV of every instance and worker count; the files do not depend on the worker count,
    # with noise or without; without it, every trajectory.csv differs
    script = load_script("bench_digests")
    runs = sum(w.n_instances for w in script.instances.WORKLOADS.values())
    files = {}
    for flags in ((), ("--noise-free",)):
        lines = bench_digest_lines(capsys, script, *flags)
        assert len(lines) == runs * 2 * len(script.CSVS)
        by_workers = {}
        for workload, instance, seed, workers, file, digest in lines:
            assert workload in script.instances.WORKLOADS and seed == "1" and file in script.CSVS
            assert len(digest) == 64 and int(digest, 16) >= 0
            by_workers.setdefault(workers, []).append((workload, instance, file, digest))
        assert set(by_workers) == {"1", "2"} and by_workers["1"] == by_workers["2"]
        files[flags] = {(workload, instance, file): digest for workload, instance, file, digest in by_workers["1"]}
    noisy, noise_free = files.values()
    assert noisy.keys() == noise_free.keys()
    assert all(noisy[key] != noise_free[key] for key in noisy if key[2] == "trajectory.csv")


def test_stream_pool_smoke():
    # the only measurement of the pool path: a two-worker run in a fresh interpreter exits 0
    # and the script prints its JSON object, with the run's wall time and peak memory
    argv = ["--repeats", "1", "--horizon", "3000", "--reps", "2", "--workers", "2"]
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "stream_pool.py"), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["config"] == {"workload": "regret-long", "horizon": 3000, "replications": 2, "workers": 2, "seed": 1}
    (run,) = result["runs"]
    assert run["rc"] == 0 and run["run_s"] > 0
    assert run["parent_peak_rss_mb"] > 0 and run["children_peak_rss_mb"] > 0
    assert result["median"] == {k: run[k] for k in ("run_s", "parent_peak_rss_mb", "children_peak_rss_mb")}


def test_peak_memory_smoke(capsys):
    # every workload's three layers are traced, and at the scale point a phase holds its n x d rows
    script = load_script("peak_memory")
    phase, metrics = script.sbe._run_phase, script.harness.compute_metrics
    script.main(["--rounds", "3000"])
    assert (script.sbe._run_phase, script.harness.compute_metrics) == (phase, metrics)
    result = json.loads(capsys.readouterr().out)
    assert set(result["workloads"]) == set(script.instances.WORKLOADS)
    for layers in result["workloads"].values():
        assert layers["rows"] > 0 and layers["phase_mb"] == max(layers["phases_mb"]) > 0
        assert layers["compute_metrics_mb"] > 0 and layers["writer_block_mb"] > 0
    scale = result["scale"]
    assert scale["rounds"] == 3000 and scale["rows_mb"] == 3000 * scale["d"] * 8 / 1e6
    assert scale["phase_mb"] >= scale["rows_mb"] and scale["compute_metrics_mb"] >= scale["rows_mb"]
