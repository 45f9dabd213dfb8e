"""Fuzz the config boundary: ``validate`` exits 0 or 2, and ``run`` agrees with it and never raises.

The strategies come from the tables the harness checks a config against:
``_ALGORITHM`` by mode and ``_ENVIRONMENT`` by kind, and from the keys the
environment module lists for each shift and noise kind, ``SHIFT_KEYS`` and
``NOISE_KEYS``.  Each key usually gets a valid value; otherwise it is left
out or gets a wrong one (a wrong type, a bool, NaN, +-inf, an int past the
largest double), and an object sometimes gains an unknown key.  A horizon or
budget is sometimes past the most rounds a run may hold, which ``validate``
must reject, and epsilon reaches down to 1e-300, whose PAC budget is past it
too.  Every example that runs stays small: one worker, at most 3
replications, d <= 4, K <= 8, at most 500 rounds, and no file read but one
feature file.  A config error names its field: only an environment that is
not an object is blamed on bare ``environment``.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import semibandit.harness as harness
from semibandit.cli import main
from semibandit.environment import NOISE_KEYS, NOISE_KINDS, SHIFT_KEYS, SHIFT_KINDS

ABSENT = object()  # a key left out of its object
WRONG = st.one_of(
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf, -1, 0, "x", [], {}]),
    st.integers(min_value=2**1024, max_value=2**1100),  # too large for a double
    st.floats(),
)
OVER_CAP = (2**59 + 1, 10**30)  # round counts past sbe._MAX_ROUNDS, which validate must reject


def rarely(usual, other):
    """``usual``, or one time in eight ``other``; shrinks to ``usual``."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 7 else usual)


ROUNDS = rarely(st.integers(1, 500), st.sampled_from(OVER_CAP))
VALID_ALGORITHM = {
    "horizon": ROUNDS,
    "budget": ROUNDS,
    "delta": st.one_of(st.floats(1e-6, 0.999), st.just(1e-320)),
    "c2": st.floats(1e-3, 10.0),
    "c3": st.floats(1e-3, 10.0),
    "schedule": st.sampled_from(["fixed", "adaptive"]),
    "fw_tol": st.floats(1e-6, 1.0),
    # down to 1e-300, whose worked-out PAC budget is past the cap
    "epsilon": rarely(st.floats(1e-2, 10.0), st.floats(-300.0, -2.0).map(lambda e: 10.0**e)),
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
    kind = draw(field(st.sampled_from(sorted(harness._ENVIRONMENT)), faults))
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
    keys = set(known(harness._ENVIRONMENT, kind, {})) - set(harness._ENV_SHARED)
    keys -= {"features" if from_file else "path"}
    env = draw(objects({key: valid[key] for key in sorted(keys)}, faults))
    env.update({"kind": kind, "seed": draw(field(st.integers(-3, 2**70), faults))})
    shift_kind = draw(field(st.sampled_from(SHIFT_KINDS), faults))
    shift = {
        "clip_to_unit": st.booleans(),
        "constant": st.floats(-3.0, 3.0),
        "table": st.one_of(st.lists(st.floats(-2.0, 2.0), max_size=8), st.integers(0, 600).map(lambda n: [0.5] * n)),
    }
    keys = set(known(SHIFT_KEYS, shift_kind, ("kind",))) - {"kind"}
    shifts = objects({key: shift[key] for key in sorted(keys)}, faults).map(with_kind(shift_kind))
    env["shift"] = draw(field(shifts, faults))
    noise_kind = draw(field(st.sampled_from(NOISE_KINDS), faults))
    keys = set(known(NOISE_KEYS, noise_kind, ("kind",))) - {"kind"}
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
    """The CLI's exit code; a config error must name a field, bare ``environment`` only if it is not an object."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    if err.getvalue().startswith("config error: environment: "):
        assert not isinstance(json.loads(path.read_text()).get("environment"), dict), err.getvalue()
    return code


@settings(derandomize=True, deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validate_and_run_exit_0_2_or_3(data):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "features.txt").write_text(FEATURE_FILE)
        raw = data.draw(configs(work))
        path = work / "cfg.json"
        path.write_text(json.dumps(raw))
        checked = exit_code("validate", path)
        assert checked in (0, 2)
        algorithm = raw.get("algorithm")
        if isinstance(algorithm, dict) and any(algorithm.get(key) in OVER_CAP for key in ("horizon", "budget")):
            assert checked == 2
        if checked == 0 and harness._rounds(harness.ExperimentConfig.from_dict(raw).algorithm) > 500:
            return  # a PAC budget worked out from epsilon; the run would be too long for this test
        assert exit_code("run", path) in ((0, 3) if checked == 0 else (2,))


def large(low: float, high: float, usual: float):
    """``usual``, or 10^e for e drawn from [``low``, ``high``]."""
    return st.one_of(st.just(usual), st.floats(low, high).map(lambda e: 10.0**e))


@st.composite
def near_the_sum_bound(draw, work: Path):
    """A config on three arms in the plane whose features, theta, shift or noise is near the bound on a run's sums.

    Entries of the features range from 1e3, where a long run's Gram matrix
    starts to outgrow the regularizer, to the largest that squared distances
    allow (4.7e153 in the plane), and theta, the shift constant and the noise
    scale reach the largest double.
    """
    s = draw(st.one_of(large(3.0, 10.0, 0.5), large(140.0, 153.7, 0.5)))
    t = draw(large(290.0, 308.2, 1.0))
    angle = draw(st.floats(0.0, 2 * math.pi))
    shift = draw(
        st.one_of(
            st.just({"kind": "sine"}),
            st.builds(
                lambda c, sign, clip: {"kind": "constant", "constant": sign * c, "clip_to_unit": clip},
                large(290.0, 308.2, 0.5),
                st.sampled_from([1.0, -1.0]),
                st.booleans(),
            ),
        )
    )
    noise = {"kind": draw(st.sampled_from(NOISE_KINDS))}
    if noise["kind"] != "none":
        noise["scale"] = draw(large(290.0, 308.2, 1.0))
    mode = draw(st.sampled_from(["regret", "error-scaling"]))
    return {
        "mode": mode,
        "environment": {
            "kind": "features",
            "features": [[s, 0.0], [0.0, s], [-s, 0.0]],
            "theta": [t * math.cos(angle), t * math.sin(angle)],
            "shift": shift,
            "noise": noise,
        },
        "algorithm": {"horizon" if mode == "regret" else "budget": draw(st.integers(10, 500))},
        "replications": draw(st.integers(1, 3)),
        "output": str(work / "out"),
        "workers": 1,
    }


@settings(derandomize=True, deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_accepted_configs_near_the_sum_bound_run(data):
    # validate bounds every sum a run forms, and the Gram matrix beside the
    # regularizer; a config it accepts runs to the end
    with tempfile.TemporaryDirectory() as work:
        raw = data.draw(near_the_sum_bound(Path(work)))
        path = Path(work) / "cfg.json"
        path.write_text(json.dumps(raw))
        checked = exit_code("validate", path)
        assert checked in (0, 2)
        if checked == 0:
            assert exit_code("run", path) == 0


# a config that validate accepts, as the bytes of its file
VALID_BYTES = json.dumps(
    {"mode": "design-cert", "environment": {"kind": "gap_instance", "d": 2, "K": 3, "gap": 0.2}, "workers": 1}
).encode()
NOT_UTF_8 = st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80"])
CONFIG_BYTES = st.one_of(
    st.integers(0, len(VALID_BYTES)).map(lambda n: VALID_BYTES[:n]),  # truncated
    st.tuples(NOT_UTF_8, st.binary(max_size=4)).map(lambda parts: b"".join(parts) + VALID_BYTES),
    st.tuples(st.integers(1, 200_000), st.booleans()).map(  # nested, the closing brackets there or not
        lambda deep: b"[" * deep[0] + VALID_BYTES + b"]" * (deep[0] * deep[1])
    ),
    st.none(),  # a directory where the file should be
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(contents=CONFIG_BYTES)
@example(contents=b'\xff\xfe{"mode": "regret"}')
@example(contents=b"[" * 100_000 + b"]" * 100_000)
@example(contents=None)
def test_config_file_bytes_exit_0_or_2(contents):
    # whatever the file holds, validate reads it under one guard: exit 0, or 2 with one line on stderr
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "cfg.json"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", "--config", str(path)])
        assert code in (0, 2)
        assert err.getvalue().count("\n") == (code == 2), err.getvalue()
        assert code == 0 or err.getvalue().startswith("config error: ")
