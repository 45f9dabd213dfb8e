"""Fuzz the argv of ``semibandit design``: every feature file and option exits 0, 2 or 3 with no traceback.

A feature file is a valid ``d K`` matrix, or one with a fault: missing,
empty, a bad header, ragged or short rows, a NaN cell, duplicate arms, or
cells of 1e308 or 1e-320.  ``--fw-tol`` is sometimes nan, inf, 1e-300 or
1e300, and ``--anchor`` sometimes -1 or K.  Every example stays small:
d <= 3 and K <= 6.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from semibandit.cli import main

FAULTS = ["none", "missing", "empty", "header", "ragged", "short", "nan", "duplicate", "huge", "tiny"]
BAD_HEADERS = ["", "d K", "2", "2 3 4", "-1 3", "0 0", "2 3.5"]


@st.composite
def feature_files(draw):
    """The text of a feature file (None: no file) and its arm count K."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d), min_size=k, max_size=k))
    header = f"{d} {k}"
    fault = draw(st.sampled_from(FAULTS))
    if fault == "missing":
        return None, k
    if fault == "empty":
        return "", k
    if fault == "header":
        header = draw(st.sampled_from(BAD_HEADERS))
    i = draw(st.integers(0, k - 1))
    if fault == "ragged":
        rows[i] = rows[i] + [0.5] if draw(st.booleans()) or d == 1 else rows[i][:-1]
    elif fault == "short":
        rows = rows[: draw(st.integers(0, k - 1))]
    elif fault == "duplicate":
        rows[draw(st.integers(0, k - 1))] = list(rows[i])
    elif fault in ("nan", "huge", "tiny"):
        value = {"nan": math.nan, "huge": draw(st.sampled_from([1e308, -1e308])), "tiny": 1e-320}[fault]
        rows[i][draw(st.integers(0, d - 1))] = value
    return header + "\n" + "".join(" ".join(repr(v) for v in row) + "\n" for row in rows), k


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    file=feature_files(),
    fw_tol=st.sampled_from([None, "nan", "inf", "1e-300", "1e300", "0.001"]),
    anchor=st.sampled_from([None, -1, 0, "K", "K-1"]),
)
def test_design_exits_0_2_or_3(file, fw_tol, anchor):
    text, k = file
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "features.txt"
        if text is not None:
            path.write_text(text)
        argv = ["design", str(path)]
        if fw_tol is not None:
            argv.append(f"--fw-tol={fw_tol}")
        if anchor is not None:
            anchor = {"K": k, "K-1": k - 1}.get(anchor, anchor)  # K: the file's arm count
            argv.append(f"--anchor={anchor}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code:
            assert err.getvalue().startswith("config error: " if code == 2 else "error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == "" and out.getvalue().startswith("arm_index,probability\n")
