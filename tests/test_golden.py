"""Byte-level golden outputs of ``run_experiment``.

Every CSV that a small config writes in each mode is pinned by its sha256,
under one and two workers.  Any change to sampling, estimation, metrics or
formatting that moves a single byte fails here; a deliberate change has to
re-record the digests and say why.
"""

import hashlib

import pytest

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


def golden_config(mode, workers, output):
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
        "algorithm": dict(ALGORITHM[mode]),
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
