"""Per-step metrics of one run's record, a block of steps at a time.

A run records only what it decided (``sbe.RunRecord``).  ``metric_blocks``
derives every per-step column from it, phase, regret, active-set size and
the estimation error e_t, one block of steps at a time: each block is one
``compute_metrics`` call, from the record's phase segments and what the
block before left (``MetricStream``), and a tuple of ``trajectory.csv``'s
columns but the replication, so no column as long as the horizon is made.
A declared arm's tail is drawn here: its arm cells are a block of the arm,
and its rewards come from ``environment.rewards_for`` a block at a time, on
a noise stream resumed from the record's saved state, so each pass over a
record draws the same tail.  Every cell of a block has the bits of computing
the whole record at once: a cumsum continued from the last block's sum adds
as one cumsum does, a noise stream read split any way gives the values of
one read, and ``rewards_for`` works element by element.
The per-step e_t of pure exploration is computed ``_BLOCK`` steps at a time:
running sums of the rank-one terms and one batched ridge solve per block
(``estimator.solve``), bit for bit equal to solving after every step.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .environment import Environment, NoiseStream, rewards_for
from .errors import InvalidSample
from .estimator import EstimatorState, solve
from .sbe import RunRecord

# steps per block of the batched e_t, which holds block x d x d floats at once
_BLOCK = 512


class MetricStream:
    """What ``compute_metrics`` reads of one record from block to block, made by ``metric_blocks``.

    The record's segments are the phases' ``taken`` rounds, then the declared
    arm's tail: ``ends`` holds the step each ends before, and ``segments``
    its phase, active-set size and e_t, each as a block of equal cells
    (read-only broadcasts); ``segment`` is the first segment not yet passed.
    Only ``cum_regret``, the last step's cumulative regret (-0.0, the identity
    of +, before the first), the declared arm's ``noise`` stream, resumed
    from the record's saved state, and a pure record's running sums ``gram``
    and ``moment`` (d x d and d) cross a block edge.  A declared
    record's tail takes its arm cells from ``tail``, a block of the declared
    arm.  A pure record's e_t also reads its policy's mean arm ``xbar`` and the
    arms less arm 0, ``z``.
    A plain class, and a block a plain tuple: making a dataclass would add to
    every import of the CLI.
    """

    def __init__(self, record: RunRecord, env: Environment, betas, ends: list, segments: list):
        self.record, self.env, self.betas, self.ends, self.segments = record, env, betas, ends, segments
        self.segment, self.cum_regret = 0, -0.0
        self.gram = self.moment = self.xbar = self.z = self.tail = self.noise = None


def metric_blocks(record: RunRecord, env: Environment, betas, block: int):
    """Yield the per-step columns of ``record`` (``compute_metrics``), ``block`` steps at a time.

    Each segment carries its phase's index and active-set size (the tail: the
    last index and one arm).  The estimation error e_t is evaluated at
    estimator snapshots: per step for pure-exploration records (anchored at
    arm 0 over all arms, regularized by ``betas``: log(t/delta) for t = 1.. at
    least the record's steps, as in ``ExperimentConfig.betas``), and at phase
    ends for elimination records (anchored at the phase anchor over the
    surviving arms), each carried over the next segment; steps before the
    first snapshot report NaN.  The declared arm's tail, which the record
    holds as a count, is drawn block by block with ``environment.rewards_for``
    from a noise stream that each pass resumes from the record's ``noise``, so
    two passes over one record give the same columns.
    """
    n, x, phases = record.steps, env.features.features, record.phases
    errors = [math.nan] * len(phases)
    if record.kind == "sbe":
        errors = [
            float(np.abs((x[list(ph.active)] - x[ph.anchor]) @ (ph.theta_hat - env.theta_star)).max()) for ph in phases
        ]
    segments = [
        tuple(np.broadcast_to(cell, block) for cell in (np.int64(phase), np.int64(size), np.float64(e_t)))
        for phase, size, e_t in zip(
            [ph.index for ph in phases] + [len(phases)], [len(ph.active) for ph in phases] + [1], [math.nan, *errors]
        )
    ]
    stream = MetricStream(record, env, betas, [*itertools.accumulate(ph.taken for ph in phases), n], segments)
    if record.kind == "pure":
        stream.gram, stream.moment = np.zeros((env.d, env.d)), np.zeros(env.d)
        stream.xbar, stream.z = phases[0].policy.probabilities @ x, x - x[0]
    if n > record.arm.shape[0]:  # a noise stream of its own: two passes over one record draw the same tail
        stream.tail, stream.noise = np.full(block, record.declared_best, np.int64), NoiseStream.resume(record.noise)
    for s in range(0, n, block):
        yield compute_metrics(stream, s, min(s + block, n))


def compute_metrics(stream: MetricStream, start: int, stop: int) -> tuple:
    """The per-step columns of steps ``start`` to ``stop`` (at most a block) of ``stream``'s record.

    They are t, phase, arm, reward, inst_regret, cum_regret, e_t, sqrt_t_e_t
    and active_size: ``trajectory.csv``'s columns but the replication.
    Blocks are computed in order, each from what the one before left on
    ``stream``, and each cell has the bits of computing the whole record at
    once.  Regret is measured against the true best arm.  A block's phase,
    active-set size and e_t are its segments' cells, repeated over the steps
    of each segment that meets it.  A pure record's per-step systems are
    solved ``_BLOCK`` at a time by ``estimator.solve``, whose ``InvalidSample``
    passes through, as does one for an e_t that is not finite.
    """
    record, env, ends = stream.record, stream.env, stream.ends
    n = stop - start
    arm, reward = record.arm[start:stop], record.reward[start:stop]
    tau = record.arm.shape[0]  # the phase rounds: the declared arm's tail follows
    if stop > tau:  # the tail's steps of the block, their rewards drawn in round order
        first = max(start, tau)
        tail = stream.tail[: stop - first]
        drawn = rewards_for(env, tail, first + 1, stream.noise)
        arm, reward = (tail, drawn) if first == start else (np.concatenate([arm, tail]), np.concatenate([reward, drawn]))
    t = np.arange(start + 1, stop + 1)
    inst = env.values[env.best_arm] - env.values[arm]
    cum = np.empty(n + 1)
    cum[0] = stream.cum_regret
    cum[1:] = inst
    cum = np.cumsum(cum, out=cum)[1:]  # continued from the last block's sum, as one cumsum adds
    stream.cum_regret = cum[-1]
    first = stream.segment
    while ends[first] <= start:
        first += 1
    stream.segment = last = first
    while ends[last] < stop:
        last += 1
    if first == last:
        phase, size, e_t = (column[:n] for column in stream.segments[first])
    else:
        counts = np.diff([start, *ends[first:last], stop])
        cells = zip(*stream.segments[first : last + 1])
        phase, size, e_t = (np.repeat([column[0] for column in columns], counts) for columns in cells)
    if record.kind == "pure":
        # running sums of x~x~' and x~r, carried from block to block.  Each step
        # equals a step-by-step solve bit for bit; np.log or einsum in place of
        # math.log or matmul would change the last bit.  x~ is gathered once per
        # call, and each _BLOCK of steps reuses one stack of sums and one of
        # moments: the sum carried in row 0, the block's terms written into the
        # rows after it, and a cumsum in place, which adds as a fresh one does.
        # |z (theta_hat - theta*)| is taken in place.  Overflow is not warned
        # of: the check that e_t is finite reports it
        e_t = np.empty(n)
        m = min(n, _BLOCK)
        grams, moments = np.empty((m + 1, env.d, env.d)), np.empty((m + 1, env.d))
        grams[0], moments[0] = stream.gram, stream.moment
        xt = env.features.features[arm]
        with np.errstate(over="ignore", invalid="ignore"):
            xt -= stream.xbar
            for s in range(0, n, _BLOCK):
                b = slice(s, s + _BLOCK)
                rows = xt[b]
                if s:  # the sub-block before was whole: its sums end the stack
                    grams[0], moments[0] = grams[-1], moments[-1]
                m = rows.shape[0]
                gram, moment = grams[: m + 1], moments[: m + 1]
                np.multiply(rows[:, :, None], rows[:, None, :], out=gram[1:])
                np.multiply(rows, reward[b, None], out=moment[1:])
                np.cumsum(gram, axis=0, out=gram)
                np.cumsum(moment, axis=0, out=moment)
                theta_hat = solve(EstimatorState(gram[1:], moment[1:]), stream.betas[start + s : start + s + m])
                error = np.matmul(stream.z, (theta_hat - env.theta_star)[:, :, None])[:, :, 0]
                np.abs(error, out=error).max(axis=1, out=e_t[b])
                del error  # not held while the next product is made
        if not np.isfinite(e_t).all():
            raise InvalidSample("the ridge estimate is not finite: the rewards or features are too large to sum")
        stream.gram, stream.moment = grams[m].copy(), moments[m].copy()  # not views that hold a _BLOCK stack
    return t, phase, arm, reward, inst, cum, e_t, np.sqrt(t) * e_t, size
