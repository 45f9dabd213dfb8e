"""Byte-level golden outputs of ``run_experiment``.

Every CSV that a small config writes in each mode is pinned by its sha256,
under one and two workers; two longer runs (7000 and 5000 rounds) cross the
block boundaries of the CSV writer and of the batched e_t.  Any change to
sampling, estimation, metrics or formatting that moves a single byte fails
here; a deliberate change has to re-record the digests and say why.  The
same configs with no noise are pinned too, so that a change that moves only
the noise leaves those digests as they are.  The anchored design is pinned on
its own at the size the d=20, K=1000 runs solve it, which those small configs
do not reach: its probabilities' bytes fix every arm a run samples.
"""

import hashlib

import numpy as np
import pytest

import semibandit.harness as harness
from semibandit.design import FeatureSet, deo
from semibandit.environment import make_gap_instance
from semibandit.harness import ExperimentConfig, run_experiment

ALGORITHM = {
    "regret": {"delta": 0.05, "horizon": 2_000},
    "pac": {"epsilon": 0.25, "delta": 0.1, "c2": 1.0},
    "error-scaling": {"budget": 300, "delta": 0.1},
    "design-cert": {},
}

# the trajectories of the three noisy modes were re-recorded when a run's noise moved from chunks keyed by
# (seed * 0x9E3779B9 + run seed) to one generator keyed like the arm stream: every noise draw changed;
# the summaries did not, and the noise-free digests below are those recorded before the change
GOLDEN = {
    "regret": {
        "summary.csv": "6d4268f222aac6b7c965af1bef439a5fdeeb7fbbb0f8552d8f033bd293600698",
        "trajectory.csv": "146efeaa497939dac3f1eadab149ddd2896ea378d5fad53c574dcf0d8b61c887",
        "trajectory_mean.csv": "19bd6d7967f7cf7cb2bd53cfccd9a6b5e3e390a3e925aab82ef667c75f672b2c",
    },
    "pac": {
        "summary.csv": "b9dde1eab905d5f9ea8c91ed6ab333ada7a9e032bf245e33abd165fd1122d6bd",
        "trajectory.csv": "1a41af3d97917f9cd9c6c58c67c1e307e38fe28ed14ee0900412f68e03129538",
        "trajectory_mean.csv": "4d819fdabac4bb38c703e3b458c8aac60732bfd972cf35bf62d54ec04d0fbdac",
    },
    "error-scaling": {
        "summary.csv": "3d94ab06aa3c350ea497a591cf92b5c93f29f48de6441e0ebda718e0873eeca6",
        "trajectory.csv": "42f18fefef96920ed7495db2d4f94f469b10f6d71429626fac29f4c7d1c71dc9",
        "trajectory_mean.csv": "e3b657731ca6bdde3175e3723fb16a0bbd2169f945731d3ef187aca1c74a823b",
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

# re-recorded with GOLDEN's trajectories, for the same reason
LONG_GOLDEN = {
    "regret": {
        "summary.csv": "6d4268f222aac6b7c965af1bef439a5fdeeb7fbbb0f8552d8f033bd293600698",
        "trajectory.csv": "2399de4bbeff2f02109fd694c7512a3452eec074c8da7caf3342a1fa4f9ae3de",
        "trajectory_mean.csv": "90ee148253bc14001ff1e2a1050eed0e4b1172c7414bfe0a007a4d39fc63e844",
    },
    "error-scaling": {
        "summary.csv": "58a851807e5acbfa72df4df59fe0cdf5deefce7efa5916e2cdfda62d4e5bf389",
        "trajectory.csv": "b4503b51ab9abe5fe5d6a15292429757675e337eb6c80d646118e4dfb5c86764",
        "trajectory_mean.csv": "56c35fa9cd8f54a209738b0639bb280a3d850b32df0909489eed782ebf37f9a2",
    },
}


# the configs above with no noise: what sampling, estimation, metrics and formatting write when only the
# noise stream is left out; recorded before the noise moved to one generator per run, which left them unchanged
NOISE_FREE_GOLDEN = {
    "regret": {
        "summary.csv": "c9b3c81ace2f63c7bc445bdb345b79cbea5893280c8dc5a0b1caa245d8303903",
        "trajectory.csv": "61f3cb7a3b5f7fcfcedff19e71640336d5b1d849a1e3639e9c388f10844b6f3d",
        "trajectory_mean.csv": "d5a1717f6ec18c360f5ced1690fafccb35a38afa44f3209c43ed36137b171d5f",
    },
    "pac": {
        "summary.csv": "b9dde1eab905d5f9ea8c91ed6ab333ada7a9e032bf245e33abd165fd1122d6bd",
        "trajectory.csv": "70f59cefbb058d7a58c36751643bb0dbd667e70138e8c4771b2e3849992d0879",
        "trajectory_mean.csv": "0c94887a9776fcf21fedbf8873f883088c5909f93d64494f854a348583c036ce",
    },
    "error-scaling": {
        "summary.csv": "3d94ab06aa3c350ea497a591cf92b5c93f29f48de6441e0ebda718e0873eeca6",
        "trajectory.csv": "c028c61b4c1aea67220e9bdfa228bb4b46c7877e3e473e1e27ab8a6a842ae168",
        "trajectory_mean.csv": "6a0f2eb4f4993d17806761c25f556af878f2d15031a9cef81d06c1f283f96499",
    },
}

LONG_NOISE_FREE_GOLDEN = {
    "regret": {
        "summary.csv": "611ede908499a296e57fce01c89ac70c0a76488db744fa779de81af049ada1f4",
        "trajectory.csv": "0c6b0f8e5d9774d9042de211eefccc2f2dd96b060bf56c9b6c59d80970a0eee3",
        "trajectory_mean.csv": "733b8b0b876155402325fdb4085632b8bdf0e23d00d8ac3a951258bf3235273a",
    },
    "error-scaling": {
        "summary.csv": "58a851807e5acbfa72df4df59fe0cdf5deefce7efa5916e2cdfda62d4e5bf389",
        "trajectory.csv": "328e15f1ce98a31b825db67c71e71bb19f29cb03096a39ee344ec029431c2f38",
        "trajectory_mean.csv": "d72eee0eb3065276becc63c2f7dda4242475d8e2fd40ba4d19ff0bbef6d83bc8",
    },
}


def golden_config(mode, workers, output, algorithm=None, noise=None):
    return {
        "mode": mode,
        "environment": {
            "kind": "gap_instance",
            "d": 3,
            "K": 5,
            "gap": 0.5,
            "seed": 11,
            "shift": {"kind": "sine"},
            "noise": noise or {"kind": "gaussian", "scale": 1.0},
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", sorted(NOISE_FREE_GOLDEN))
def test_noise_free_csv_digests(tmp_path, mode, workers):
    run_experiment(ExperimentConfig.from_dict(golden_config(mode, workers, tmp_path / "out", noise={"kind": "none"})))
    assert csv_digests(tmp_path / "out") == NOISE_FREE_GOLDEN[mode]


@pytest.mark.parametrize("mode", sorted(LONG_NOISE_FREE_GOLDEN))
def test_noise_free_csv_digests_across_blocks(tmp_path, mode):
    config = golden_config(mode, 1, tmp_path / "out", LONG_ALGORITHM[mode], noise={"kind": "none"})
    run_experiment(ExperimentConfig.from_dict(config))
    assert csv_digests(tmp_path / "out") == LONG_NOISE_FREE_GOLDEN[mode]


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


def design_inputs():
    x = make_gap_instance(20, 1000, 0.2, 0).features.features
    return {
        "d=20,K=1000": x,  # a phase 1 of 1,640 Frank-Wolfe iterations over 999 anchored rows
        "d=20,K=300": x[:300],  # the size of a phase 2 over the survivors
        "rank 12 in d=20": x[:300, :12] @ np.random.default_rng(0).standard_normal((12, 20)),  # solved in span coordinates
    }


# sha256 of deo's probabilities.tobytes() and its certificate, recorded before the Frank-Wolfe step was made to
# write into buffers allocated once per solve: a change to the solver's arithmetic that moves a bit fails here
DESIGN_GOLDEN = {
    "d=20,K=1000": (
        "f3d01eb03a61ea2bd666d0ffc31bed3cab2f7c4a44ce3ca6ca6198df4cc14fe4",
        (6.564621605871031, 6.257064598662494, 174, 20),
    ),
    "d=20,K=300": (
        "970241f1b0db33c4bc0f0e07646ffeec07e6e977932c667ec87729751b89e9d7",
        (6.5966942239514585, 6.264277756321005, 143, 20),
    ),
    "rank 12 in d=20": (
        "0cf90a7b75dd77884ee824992d883a75b412bad4ab19563e089cc4cd0d0e8275",
        (5.3428277863873, 4.880143719046892, 55, 12),
    ),
}


@pytest.mark.parametrize("name", sorted(DESIGN_GOLDEN))
def test_design_digests(name):
    policy, cert = deo(FeatureSet(design_inputs()[name]))
    digest = hashlib.sha256(policy.probabilities.tobytes()).hexdigest()
    norms = (cert.max_anchor_norm, cert.max_centered_norm, cert.support_size, cert.dim)
    assert (digest, norms) == DESIGN_GOLDEN[name]
