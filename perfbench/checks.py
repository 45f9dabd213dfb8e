"""Output checks, computed apart from the program or from properties of the method.

The reference is the benchmark's own instance (features, theta*, the
``sine`` formula) and, for the sampling policy, the anchored design that
``semibandit.design.deo`` returns, which is itself checked first.  No
stored copy of an earlier output is used.  Each check appends a message to
the returned list when it fails; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

import numpy as np

from instances import FW_TOL, Instance, Workload, shift

EPS = np.finfo(float).eps
TRAJECTORY = ("t", "replication", "phase", "arm", "reward", "inst_regret", "cum_regret", "e_t", "sqrt_t_e_t", "active_size")
MEAN = ("t", "mean_cum_regret", "mean_e_t", "mean_sqrt_t_e_t")
SUMMARY = ("replication", "seed", "final_regret", "declared_best", "declared_at", "greedy_arm", "success")
FALSE_ALARM = 1e-6  # per statistical check and run
CHECKPOINTS = 20  # e_t recomputed at this many rounds per replication (error-scaling)


def _read_table(path: Path, columns):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if tuple(header) != columns:
            return None
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {c: data[:, i] for i, c in enumerate(columns)} if data.size else None


def _read_summary(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != SUMMARY:
        return None
    return [dict(zip(SUMMARY, r)) for r in rows[1:]]


def _close(a, b, rtol, atol=0.0):
    return bool(np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True))


def check_policy(w: Workload, inst: Instance, policy) -> list:
    """The anchored design over all arms: a distribution, half on the anchor, norms <= 2 sqrt(d(1+tol))."""
    errors = []
    p = np.asarray(policy.probabilities)
    x = inst.features
    if p.shape != (w.K,) or (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
        errors.append("policy: not a distribution over the arms")
        return errors
    if p[0] != 0.5:
        errors.append(f"policy: anchor probability {p[0]!r} != 0.5")
    xbar = p @ x
    cov = ((x - xbar).T * p) @ (x - xbar)
    diffs = x - x[0]
    norms = np.sqrt(np.einsum("ij,ij->i", np.linalg.solve(cov, diffs.T).T, diffs))
    if norms.max() > 2.0 * math.sqrt(w.d * (1.0 + FW_TOL)) * (1 + 1e-9):
        errors.append(f"policy: anchored norm {norms.max():.6g} > 2 sqrt(d(1+fw_tol))")
    return errors


def certificate_errors(k: int, cert) -> list:
    """Bounds every certificate from ``deo`` must meet, up to the solver tolerance."""
    d = cert.dim
    slack = math.sqrt(1.0 + FW_TOL) * (1 + 1e-9)
    errors = []
    if cert.max_anchor_norm > 2.0 * math.sqrt(d) * slack:
        errors.append(f"certificate (K={k}): max_anchor_norm {cert.max_anchor_norm:.6g} > 2 sqrt({d})")
    if cert.max_centered_norm > 4.0 * math.sqrt(d) * slack:
        errors.append(f"certificate (K={k}): max_centered_norm {cert.max_centered_norm:.6g} > 4 sqrt({d})")
    if cert.support_size > d * (d + 1) // 2 + 1:
        errors.append(f"certificate (K={k}): support {cert.support_size} > d(d+1)/2 + 1")
    return errors


def envelope(t: np.ndarray, d: int, delta: float) -> np.ndarray:
    """The paper's e_t envelope (C1 = 10) with the worst-case norms L = (2 sqrt d)^2, M = (4 sqrt d)^2."""
    big_l, big_m = 4.0 * d, 16.0 * d
    return 10.0 * (np.sqrt(big_l * np.log(t / delta)) / np.sqrt(t) + math.sqrt(big_l) * big_m * math.log(d / delta) / t)


def _recompute_e_t(inst: Instance, xbar: np.ndarray, arms, rewards, delta: float, ts):
    """Ridge estimate error at rounds ``ts`` from the logged arms and rewards, and its rounding bound."""
    x = inst.features
    z = x - x[0]
    zmax = float(np.linalg.norm(z, axis=1).max())
    centered = x[arms] - xbar
    eye = np.eye(x.shape[1])
    out, tol = [], []
    for t in ts:
        c, r = centered[:t], rewards[:t]
        gram = c.T @ c
        a = gram + math.log(t / delta) * eye
        theta_hat = np.linalg.solve(a, c.T @ r)
        e = float(np.abs(z @ (theta_hat - inst.theta)).max())
        # first-order bound on the solution's rounding error when either side sums
        # the t rank-one terms in another order: |dA|, |db| <= t u sum|terms|
        da = t * EPS * float(np.trace(gram))
        db = t * EPS * float(np.linalg.norm(c, axis=1) @ np.abs(r))
        inv_norm = 1.0 / float(np.linalg.eigvalsh(a)[0])
        out.append(e)
        tol.append(8.0 * zmax * inv_norm * (da * float(np.linalg.norm(theta_hat)) + db) + 8.0 * EPS * e)
    return np.array(out), np.array(tol)


def declaration_errors(tally: Counter, delta: float) -> list:
    """Wrong best-arm declarations against the method's guarantee.

    Each replication declares a suboptimal arm with probability at most
    ``delta``, so a few wrong declarations are expected; only a count whose
    binomial tail falls below FALSE_ALARM is an error.
    """
    n, wrong = tally["declared"], tally["wrong"]
    tail = sum(math.comb(n, k) * delta**k * (1.0 - delta) ** (n - k) for k in range(wrong, n + 1))
    if wrong and tail < FALSE_ALARM:
        return [f"summary: {wrong} of {n} declarations name a suboptimal arm, improbable at delta={delta}"]
    return []


def check_outputs(out_dir, w: Workload, inst: Instance, cfg: dict, policy=None, tally=None) -> list:
    """Check one output directory of the workload's config against the instance.

    ``policy`` is the anchored design over all arms (error-scaling only).
    Declarations are counted into ``tally`` when one is given, for
    ``declaration_errors`` over several outputs; otherwise they are judged
    for this output alone.
    """
    out = Path(out_dir)
    length = cfg["algorithm"][w.length_key]
    reps, base = cfg["replications"], cfg["base_seed"]
    delta = cfg["algorithm"]["delta"]
    errors = []
    try:
        traj = _read_table(out / "trajectory.csv", TRAJECTORY)
        mean = _read_table(out / "trajectory_mean.csv", MEAN)
        summary = _read_summary(out / "summary.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if traj is None or mean is None or summary is None:
        return ["missing rows or wrong header"]
    if not (out / "manifest.json").is_file():
        errors.append("manifest.json missing")

    n = traj["t"].shape[0]
    if n != reps * length:
        return errors + [f"trajectory: {n} rows, expected {reps * length}"]
    t = traj["t"].reshape(reps, length)
    if not (t == np.arange(1, length + 1)).all():
        errors.append("trajectory: t column is not 1..T in each replication")
    if not (traj["replication"].reshape(reps, length) == np.arange(reps)[:, None]).all():
        errors.append("trajectory: replication column out of order")
    arms_f = traj["arm"]
    if not ((arms_f >= 0) & (arms_f < w.K) & (arms_f == np.round(arms_f))).all():
        return errors + ["trajectory: arm index out of range"]
    arms = arms_f.astype(np.int64).reshape(reps, length)
    size = traj["active_size"].reshape(reps, length)
    if not ((size >= 1) & (size <= w.K)).all() or (np.diff(size, axis=1) > 0).any():
        errors.append("trajectory: active_size out of range or increasing")
    phase = traj["phase"].reshape(reps, length)
    if (phase < 1).any() or (np.diff(phase, axis=1) < 0).any():
        errors.append("trajectory: phase column not positive and non-decreasing")

    values = inst.values
    inst_regret = values[inst.best] - values[arms]
    cum = np.cumsum(inst_regret, axis=1)
    if not _close(traj["inst_regret"].reshape(reps, length), inst_regret, 0.0, 1e-14):
        errors.append("trajectory: inst_regret differs from x_best'theta - x_a'theta")
    if not _close(traj["cum_regret"].reshape(reps, length), cum, 1e-12, 1e-12):
        errors.append("trajectory: cum_regret differs from the running sum of regret")

    e_t = traj["e_t"].reshape(reps, length)
    if not _close(traj["sqrt_t_e_t"].reshape(reps, length), np.sqrt(t) * e_t, 4 * EPS):
        errors.append("trajectory: sqrt_t_e_t != sqrt(t) e_t")

    # reward - x_a'theta* - nu_t is N(0, 1) noise: mean, variance and maximum
    resid = traj["reward"] - values[arms].ravel() - shift(traj["t"])
    z = math.sqrt(2.0 * math.log(2.0 / FALSE_ALARM))
    if abs(resid.mean()) > z / math.sqrt(n):
        errors.append(f"rewards: residual mean {resid.mean():.4g} not N(0,1)")
    if abs(resid.var() - 1.0) > z * math.sqrt(2.0 / n):
        errors.append(f"rewards: residual variance {resid.var():.4g} not N(0,1)")
    if np.abs(resid).max() > math.sqrt(2.0 * math.log(2.0 * n / FALSE_ALARM)):
        errors.append(f"rewards: residual {np.abs(resid).max():.4g} beyond the N(0,1) maximum")

    if len(summary) != reps:
        return errors + [f"summary: {len(summary)} rows, expected {reps}"]
    declared = Counter() if tally is None else tally
    for r, row in enumerate(summary):
        if row["replication"] != str(r) or row["seed"] != str(base + r):
            errors.append(f"summary: replication/seed wrong in row {r}")
        if not _close(float(row["final_regret"]), cum[r, -1], 1e-12, 1e-12):
            errors.append(f"summary: final_regret of replication {r} != cumulative regret")
        if w.mode == "regret":
            errors += _check_declaration(row, r, inst, arms[r], phase[r], size[r], e_t[r], declared)
        else:
            greedy = row["greedy_arm"]
            if not greedy.isdigit() or row["success"] != str(int(int(greedy) == inst.best)):
                errors.append(f"summary: greedy_arm/success inconsistent in row {r}")

    if mean["t"].shape[0] != length or not (mean["t"] == np.arange(1, length + 1)).all():
        errors.append("trajectory_mean: t column is not 1..T")
    else:
        if not _close(mean["mean_cum_regret"], cum.mean(axis=0), 1e-12, 1e-12):
            errors.append("trajectory_mean: mean_cum_regret differs from the mean cumulative regret")
        if not _close(mean["mean_e_t"], e_t.mean(axis=0), 1e-12, 1e-15):
            errors.append("trajectory_mean: mean_e_t differs from the mean of e_t")
        if not _close(mean["mean_sqrt_t_e_t"], (np.sqrt(t) * e_t).mean(axis=0), 1e-12, 1e-15):
            errors.append("trajectory_mean: mean_sqrt_t_e_t differs from the mean of sqrt(t) e_t")
    if tally is None:
        errors += declaration_errors(declared, delta)

    if w.mode == "error-scaling":
        errors += check_policy(w, inst, policy)
        if not np.isfinite(e_t).all():
            errors.append("trajectory: e_t not finite at every round")
        elif (e_t > envelope(t, w.d, delta)).any():
            errors.append("trajectory: e_t above the error envelope")
        ts = np.unique(np.concatenate([[1, 2, 3], np.linspace(length / CHECKPOINTS, length, CHECKPOINTS).astype(int)]))
        xbar = np.asarray(policy.probabilities) @ inst.features
        for r in range(reps):
            rewards = traj["reward"].reshape(reps, length)[r]
            ref, tol = _recompute_e_t(inst, xbar, arms[r], rewards, delta, ts)
            bad = np.abs(e_t[r, ts - 1] - ref) > tol
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                errors.append(f"trajectory: e_t at t={ts[i]}, replication {r} is {e_t[r, ts[i] - 1]!r}, recomputed {ref[i]!r}")
    return errors


def _check_declaration(row, r, inst, arms, phase, size, e_t, tally) -> list:
    errors = []
    declared, at = row["declared_best"], row["declared_at"]
    if declared == "":
        if at != "" or row["success"] != "0":
            errors.append(f"summary: undeclared replication {r} has declared_at or success")
    else:
        at, arm = int(at), int(declared)
        tally["declared"] += 1
        tally["wrong"] += arm != inst.best
        if row["success"] != str(int(arm == inst.best)):
            errors.append(f"summary: replication {r} success disagrees with its declared arm {arm}")
        # from declared_at on only the declared arm is played (zero regret when it is the best)
        if (arms[at:] != arm).any() or (size[at:] != 1).any():
            errors.append(f"trajectory: replication {r} leaves the declared arm after declared_at")
    # e_t is a per-phase snapshot: NaN through phase 1, then constant within each
    # later phase and after the declaration
    end = len(phase) if declared == "" else at
    if not np.isnan(e_t[:end][phase[:end] == 1]).all():
        errors.append(f"trajectory: replication {r} has e_t during phase 1")
    cuts = sorted(set((np.flatnonzero(np.diff(phase) != 0) + 1).tolist()) | {0, end, len(phase)})
    for lo, hi in zip(cuts, cuts[1:]):
        if (phase[lo] > 1 or lo >= end) and np.unique(e_t[lo:hi]).size != 1:
            errors.append(f"trajectory: replication {r} e_t varies within phase {int(phase[lo])}")
    return errors
