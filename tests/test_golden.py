"""Byte-level golden outputs of ``run_experiment``.

Every CSV that a small config writes in each mode is pinned by its sha256,
under one and two workers; two longer runs (7000 and 5000 rounds) cross the
block boundaries of the CSV writer and of the batched e_t.  Any change to
sampling, estimation, metrics or formatting that moves a single byte fails
here; a deliberate change has to re-record the digests and say why.
"""

import hashlib

import pytest

import semibandit.harness as harness
from semibandit.harness import ExperimentConfig, run_experiment

ALGORITHM = {
    "regret": {"delta": 0.05, "horizon": 2_000},
    "pac": {"epsilon": 0.25, "delta": 0.1, "c2": 1.0},
    "error-scaling": {"budget": 300, "delta": 0.1},
    "design-cert": {},
}

GOLDEN = {
    "regret": {
        "summary.csv": "6d4268f222aac6b7c965af1bef439a5fdeeb7fbbb0f8552d8f033bd293600698",
        "trajectory.csv": "9b301ee9a92efb0c8b7872a687cc1b8933073dbb3a5798e30cd288865574ddd8",
        "trajectory_mean.csv": "51fd1a9ab35af2da451cdc7f44a2981c541675d060552be55e382b89cd4594e4",
    },
    "pac": {
        "summary.csv": "b9dde1eab905d5f9ea8c91ed6ab333ada7a9e032bf245e33abd165fd1122d6bd",
        "trajectory.csv": "d35f4a79ae1f9660893332dde18f5695775f6a400393a3f0bc03fb089f95b6f5",
        "trajectory_mean.csv": "b0dcc774722e45a229781887e70558cb3b68e79bf48875dd9ba2df0fd77cf98b",
    },
    "error-scaling": {
        "summary.csv": "3d94ab06aa3c350ea497a591cf92b5c93f29f48de6441e0ebda718e0873eeca6",
        "trajectory.csv": "db7d7a3df9423b5bf5adf7ef8e529f922f4b3755e2616d0924162e25bd6a105a",
        "trajectory_mean.csv": "a606f7732d7bd01841c944d99295a92403727532a07603c9d7c04d9f6bf71bd3",
    },
    "design-cert": {
        # re-recorded when the certificate's moments moved from the arms to the anchored differences, the rows
        # the design is solved on: both norms moved in their last digit, to 2.8284271247461903 and 2.5703085947399442
        "certificate.csv": "4bcc3067bf122db0c6fad4daead6e6e4d5c68e35c109f23358ea0bb039a21cbc",
        "policy.csv": "26dbdefbc10bc8f618b8be2afe330db52db8f3378ca20be47b97e20dfaf1305c",
    },
}


# runs of 7000 and 5000 rounds per replication: the CSV writer and the
# batched e_t cross several block boundaries and end on a partial block
LONG_ALGORITHM = {
    "regret": {"delta": 0.05, "horizon": 7_000},
    "error-scaling": {"budget": 5_000, "delta": 0.1},
}

LONG_GOLDEN = {
    "regret": {
        "summary.csv": "6d4268f222aac6b7c965af1bef439a5fdeeb7fbbb0f8552d8f033bd293600698",
        "trajectory.csv": "f1813742f5c11f79e8816e5f514409930632a7a2bbcbf2f4dc79757766d34c7d",
        "trajectory_mean.csv": "71d3673922934d8a6df181bd6ab6915a01c5a792a9c458d6e22d8a610517374c",
    },
    "error-scaling": {
        "summary.csv": "58a851807e5acbfa72df4df59fe0cdf5deefce7efa5916e2cdfda62d4e5bf389",
        "trajectory.csv": "a3909d32bb1a40e6dbbd7bd0e31069bc416c1df3bf3618fff0c6b6545b8ec048",
        "trajectory_mean.csv": "aa54dcb7f782524f86be3b8f59c8bc533646a736ab310deae724f5d121f56882",
    },
}


def golden_config(mode, workers, output, algorithm=None):
    return {
        "mode": mode,
        "environment": {
            "kind": "gap_instance",
            "d": 3,
            "K": 5,
            "gap": 0.5,
            "seed": 11,
            "shift": {"kind": "sine"},
            "noise": {"kind": "gaussian", "scale": 1.0},
        },
        "algorithm": dict(algorithm or ALGORITHM[mode]),
        "replications": 2,
        "base_seed": 100,
        "output": str(output),
        "workers": workers,
    }


def csv_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.glob("*.csv"))}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_csv_digests(tmp_path, mode, workers):
    run_experiment(ExperimentConfig.from_dict(golden_config(mode, workers, tmp_path / "out")))
    assert csv_digests(tmp_path / "out") == GOLDEN[mode]


@pytest.mark.parametrize("mode", sorted(LONG_GOLDEN))
def test_csv_digests_across_blocks(tmp_path, mode):
    run_experiment(ExperimentConfig.from_dict(golden_config(mode, 1, tmp_path / "out", LONG_ALGORITHM[mode])))
    assert csv_digests(tmp_path / "out") == LONG_GOLDEN[mode]


@pytest.mark.parametrize("mode", ["regret", "error-scaling", "design-cert"])
def test_block_size_does_not_change_bytes(tmp_path, monkeypatch, mode):
    # a 7-row block puts a carry and a partial last block in every file
    algorithm = {"regret": {"delta": 0.05, "horizon": 600}, "error-scaling": {"budget": 500, "delta": 0.1}}.get(mode)
    run_experiment(ExperimentConfig.from_dict(golden_config(mode, 1, tmp_path / "default", algorithm)))
    monkeypatch.setattr(harness, "_BLOCK", 7)
    monkeypatch.setattr(harness, "_WRITE_BLOCK", 7)
    run_experiment(ExperimentConfig.from_dict(golden_config(mode, 1, tmp_path / "small", algorithm)))
    default = {p.name: p.read_bytes() for p in (tmp_path / "default").glob("*.csv")}
    assert default and default == {p.name: p.read_bytes() for p in (tmp_path / "small").glob("*.csv")}
