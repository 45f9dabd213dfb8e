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
        "trajectory.csv": "8afc1df48caaaa479dfa04be2a0100a136c7f33abd3a7c5e0e586fd1669a1e02",
        "trajectory_mean.csv": "c0caf2d76b1f80968547519c3707af34de883543f08bd053179d321684166161",
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
        "certificate.csv": "270662fae9b81b696f1a1de007d006ae1a99bdbb4ba66a07d6a3eeeadf548af0",
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
        "trajectory.csv": "b4d141d80f250268da316479e3b85c0aeb6b25b76deb203aa5d20981c5172419",
        "trajectory_mean.csv": "90a6936ed5a5c7407bcc5cef4a34d8f8c024dfe61bf241e7b743bba92bce5b24",
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
    run_experiment(ExperimentConfig.from_dict(golden_config(mode, 1, tmp_path / "small", algorithm)))
    default = {p.name: p.read_bytes() for p in (tmp_path / "default").glob("*.csv")}
    assert default and default == {p.name: p.read_bytes() for p in (tmp_path / "small").glob("*.csv")}
