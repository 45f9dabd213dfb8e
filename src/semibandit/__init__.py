"""Simulator and library for finite-armed semiparametric bandits.

Core pieces: G-optimal and anchored-difference experimental designs with
certificates, orthogonalized ridge regression on centered features, phase
elimination (regret and best-arm identification) with pure exploration
(PAC, error scaling) as its one-phase case, reward-process simulation with
adversarial shifts, and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .design import (  # noqa: F401
    DesignCertificate,
    DesignPolicy,
    FeatureSet,
    PolicyMoments,
    deo,
    g_optimal,
    policy_moments,
)
from .environment import (  # noqa: F401
    Environment,
    NoiseSpec,
    NoiseStream,
    ShiftSpec,
    make_gap_instance,
    make_mab_embedding,
    rewards_for,
    shift_values,
)
from .estimator import (  # noqa: F401
    EstimatorState,
    error_bound_diagnostic,
    regularizer,
    solve,
    update_batch,
)
from .sbe import (  # noqa: F401
    PhaseState,
    RunRecord,
    SbeConfig,
    eliminate,
    pac_budget,
    phase_length,
    run_pure_exploration,
    run_sbe,
)
