import importlib.util
import json
import math
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
