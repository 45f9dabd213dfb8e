"""Fuzz the config boundary: ``validate`` exits 0 or 2, and ``run`` agrees with it and never raises.

The strategies come from the tables the harness checks a config against:
``_ALGORITHM`` by mode, ``_ENVIRONMENT_KEYS``, ``_SHIFT_KEYS`` and
``_NOISE_KEYS``.  Each key usually gets a valid value; otherwise it is left
out or gets a wrong one (a wrong type, a bool, NaN, +-inf, an int past the
largest double), and an object sometimes gains an unknown key.  Every
example stays small: one worker, at most 3 replications, d <= 4, K <= 8,
at most 500 rounds, and no file read but one feature file.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semibandit.harness as harness
from semibandit.cli import main
from semibandit.environment import NOISE_KINDS, SHIFT_KINDS

ABSENT = object()  # a key left out of its object
WRONG = st.one_of(
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf, -1, 0, "x", [], {}]),
    st.integers(min_value=2**1024, max_value=2**1100),  # too large for a double
    st.floats(),
)
VALID_ALGORITHM = {
    "horizon": st.integers(1, 500),
    "budget": st.integers(1, 500),
    "delta": st.one_of(st.floats(1e-6, 0.999), st.just(1e-320)),
    "c2": st.floats(1e-3, 10.0),
    "c3": st.floats(1e-3, 10.0),
    "schedule": st.sampled_from(["fixed", "adaptive"]),
    "fw_tol": st.floats(1e-6, 1.0),
    "epsilon": st.floats(1e-2, 10.0),
    "anchor": st.integers(0, 9),
}
FEATURE_FILE = "2 3\n0.5 0\n0 0.5\n-0.5 0\n"  # d = 2, K = 3


def field(valid, faults: bool, absent=True, wrong=WRONG):
    """``valid``, or with ``faults`` sometimes a ``wrong`` value or (if ``absent``) none; shrinks to ``valid``."""
    if not faults:
        return valid
    return st.integers(0, 12).flatmap(lambda i: wrong if i == 12 else st.just(ABSENT) if i == 11 and absent else valid)


@st.composite
def objects(draw, valid: dict, faults: bool):
    """An object with a ``field`` of each key of ``valid``, and with ``faults`` sometimes an unknown key."""
    obj = {key: draw(field(strategy, faults)) for key, strategy in valid.items()}
    if faults and draw(st.integers(0, 12)) == 12:
        obj[draw(st.sampled_from(["zz", "Kind", "kind "]))] = 1
    return {key: value for key, value in obj.items() if value is not ABSENT}


def known(table: dict, kind, other=()):
    """``table[kind]`` when ``kind`` is one of its keys, else ``other``."""
    return table[kind] if isinstance(kind, str) and kind in table else other


def with_kind(kind):
    """A function adding ``kind`` to an object, unless it is ABSENT."""
    return lambda obj: obj if kind is ABSENT else {**obj, "kind": kind}


@st.composite
def environments(draw, feature_file: str, faults: bool):
    kind = draw(field(st.sampled_from(sorted(harness._ENVIRONMENT_KEYS)), faults))
    from_file = draw(st.integers(0, 4)) == 0
    d = 2 if from_file else draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    coordinate = st.floats(-1.0, 1.0)
    valid = {
        "d": st.just(d),
        "K": st.just(k),
        "gap": st.floats(0.01, 0.5),
        "mu": st.lists(coordinate, min_size=k, max_size=k),
        "features": st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=k, max_size=k),
        "path": st.just(feature_file),
        "theta": st.lists(coordinate, min_size=d, max_size=d),
    }
    keys = set(known(harness._ENVIRONMENT_KEYS, kind)) - {"features" if from_file else "path"}
    env = draw(objects({key: valid[key] for key in sorted(keys)}, faults))
    env.update({"kind": kind, "seed": draw(field(st.integers(-3, 2**70), faults))})
    shift_kind = draw(field(st.sampled_from(SHIFT_KINDS), faults))
    shift = {
        "clip_to_unit": st.booleans(),
        "constant": st.floats(-3.0, 3.0),
        "table": st.one_of(st.lists(st.floats(-2.0, 2.0), max_size=8), st.integers(0, 600).map(lambda n: [0.5] * n)),
    }
    keys = set(known(harness._SHIFT_KEYS, shift_kind, ("kind",))) - {"kind"}
    shifts = objects({key: shift[key] for key in sorted(keys)}, faults).map(with_kind(shift_kind))
    env["shift"] = draw(field(shifts, faults))
    noise_kind = draw(field(st.sampled_from(NOISE_KINDS), faults))
    keys = set(known(harness._NOISE_KEYS, noise_kind, ("kind",))) - {"kind"}
    scale = {"scale": st.one_of(st.floats(0.0, 3.0), st.just(1e308))}
    env["noise"] = draw(field(objects({key: scale[key] for key in keys}, faults).map(with_kind(noise_kind)), faults))
    return {key: value for key, value in env.items() if value is not ABSENT}


@st.composite
def configs(draw, work: Path):
    """A config; in half of them (``faults``) a key may be wrong, missing or unknown."""
    faults = draw(st.booleans())
    mode = draw(field(st.sampled_from(harness.MODES), faults))
    keys = known(harness._ALGORITHM, mode, sorted(VALID_ALGORITHM))
    workers = field(st.just(1), faults, absent=False, wrong=st.sampled_from([0, -1, True, 1.0, "1", 2**1100]))
    raw = {
        "mode": mode,
        "environment": draw(field(environments(str(work / "features.txt"), faults), faults)),
        "algorithm": draw(field(objects({key: VALID_ALGORITHM[key] for key in keys}, faults), faults)),
        "replications": draw(field(st.integers(1, 3), faults)),
        "base_seed": draw(field(st.integers(-(2**70), 2**70), faults)),
        # always given: the default output is relative, and no workers means one per core
        "output": draw(field(st.just(str(work / "out")), faults, absent=False)),
        "workers": draw(workers),
    }
    return {key: value for key, value in raw.items() if value is not ABSENT}


def exit_code(command: str, path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([command, "--config", str(path)])


@settings(derandomize=True, deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validate_and_run_exit_0_2_or_3(data):
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # drawn features and theta may break the unit-norm assumptions
        work = Path(work)
        (work / "features.txt").write_text(FEATURE_FILE)
        raw = data.draw(configs(work))
        path = work / "cfg.json"
        path.write_text(json.dumps(raw))
        checked = exit_code("validate", path)
        assert checked in (0, 2)
        if checked == 0 and harness._rounds(harness.ExperimentConfig.from_dict(raw).algorithm) > 500:
            return  # a PAC budget worked out from epsilon; the run would be too long for this test
        assert exit_code("run", path) in ((0, 3) if checked == 0 else (2,))
