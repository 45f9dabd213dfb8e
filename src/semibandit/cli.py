"""Command-line entry point.

Subcommands:
  design <features-file> [--anchor I] [--fw-tol X]   print policy + certificate
  run --config FILE [--mode M] [--seed S] [--reps N] [--out DIR] [--workers W]
  validate --config FILE

Exit codes: 0 success; 2 configuration error, a missing or malformed feature
file included (given to ``design`` or as ``environment.path``); 3 runtime
error, running out of memory included.  An error prints one line to stderr,
and a success prints nothing there: a run reports where its inputs break the
model's assumptions in its manifest (``assumption_audit``), not as warnings.
"""

from __future__ import annotations

import argparse
import sys

from .design import FeatureSet, deo
from .errors import ConfigError, DimError, SemibanditError, check_positive
from .harness import ExperimentConfig, check_anchor, run_experiment


def _cmd_design(args) -> int:
    check_positive(args.fw_tol, "--fw-tol")
    try:
        feats = FeatureSet.from_file(args.features_file)
    except (OSError, DimError) as exc:
        raise ConfigError("features_file", str(exc)) from None
    check_anchor(args.anchor, feats.K, "--anchor")
    policy, cert = deo(feats, anchor=args.anchor, fw_tol=args.fw_tol)
    print("arm_index,probability")
    for i, p in enumerate(policy.probabilities):
        print(f"{i},{p:.17g}")
    print(
        f"# certificate: max_anchor_norm={cert.max_anchor_norm:.17g} "
        f"max_centered_norm={cert.max_centered_norm:.17g} "
        f"support={cert.support_size} dim={cert.dim}"
    )
    return 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(
        args.config, mode=args.mode, base_seed=args.seed, replications=args.reps, output=args.out, workers=args.workers
    )
    result = run_experiment(cfg)
    for key, value in result.items():
        if key not in ("certificate", "policy"):
            print(f"{key}: {value}")
    return 0


def _cmd_validate(args) -> int:
    ExperimentConfig.from_file(args.config)
    print("config ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semibandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="compute the anchored design for a feature file")
    p_design.add_argument("features_file")
    p_design.add_argument("--anchor", type=int, default=0)
    p_design.add_argument("--fw-tol", type=float, default=1e-3, dest="fw_tol")
    p_design.set_defaults(func=_cmd_design)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SemibanditError, OSError, MemoryError) as exc:  # MemoryError: more rounds than memory holds
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
