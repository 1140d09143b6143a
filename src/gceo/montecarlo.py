"""Statistical confirmation of the distortion algebra by simulation.

X ~ N(0, sigma_x2) is observed as Y_i = X + N_i, and encoder i's stage-j
description is W_ji = Y_i + T_ji with the test-channel variance
sigma_t2[j][i] implied by the allocation (infinite, so absent, at rate 0).
Everything is jointly Gaussian, so the per-stage MMSE estimate is linear:

    xhat_j = D_j * sum_i W_ji / (sigma_n2[i] + sigma_t2[j][i]),    D_j = 1/precision.

Draw plan.  A stage's error depends only on the joint law of (X, W_j.):
W_ji = X + U_ji with U_ji ~ N(0, sigma_n2[i] + sigma_t2[j][i]) independent
across encoders and of X.  So the simulation never draws N_i and T_i
apart (Y_i enters no estimate), and one independent standard normal row
per source of noise suffices:

* row 0 is X / sqrt(sigma_x2);
* each encoder heard at some stage gets one row, its finest noise
  N_i + T_i with variance sigma_n2[i] + sigma_t2 at its finest heard stage;
* each coarser stage whose test-channel variance grows by delta > 0 adds
  one row, the refinement noise of variance delta that degrades the next
  finer description.  A stage with no growth shares that description
  (a drop within the chain tolerance counts as no growth);
* an encoder silent at every stage draws nothing.

Stage j's error X - xhat_j is then linear in the draws: it is G[j] @ z
for the (stages x rows) error map G built once per call by ``_error_map``.
Each shard makes one ``standard_normal((rows, m))`` block, one matrix
product gives every stage's errors, and the sums of e^2 and e^4 are two
reductions.  With unscaled coefficients the squares of G's row j sum to
D_j, which the tests check exactly.

Sampling.  The sample range is cut into shards of ``SHARD_SIZE`` = 16384
samples (the last one shorter), and shard k draws from its own stream,
SFC64 seeded by ``SeedSequence([seed, k])``.  The shards' sums are added
in shard order, so a report depends only on (instance, chain, n, seed),
never on how the shards ran.  A given seed draws different samples than
it did before the generator changed from Philox to SFC64 and the shards
shrank from 65536 samples.

Concurrency.  With more than one shard and more than one usable CPU,
each shard's draw, product and reductions run on a module-level thread
pool (built on first use; numpy releases the GIL for all three), while
the calling thread adds the finished shards' sums in shard order.  At
most ``IN_FLIGHT_PER_WORKER`` shards per worker are submitted ahead of
that sum, which bounds memory and the work started for any n.  With one
worker the shards run inline and no pool is built.  Workers call only
``_shard_rng`` and numpy.

numpy and ``concurrent.futures`` are imported by the functions that use
them, not with the module, so that the command-line front end loads this
module at start-up without loading either.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

from .errors import ArgumentError
from .model import CHAIN_DROP, CeoInstance, _check_allocation, channel_noise_from_r, distortion

SHARD_SIZE = 1 << 14
# Shards submitted ahead of the in-order sum, per worker: enough to keep
# every worker busy, few enough to bound the memory held by pending draws.
IN_FLIGHT_PER_WORKER = 2

_pool_lock = threading.Lock()
_pool = None  # (pid, ThreadPoolExecutor); a forked child builds its own


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    seed: int

    def __post_init__(self):
        if not 0 < self.n_samples < 2**64:
            raise ArgumentError(f"n_samples must be positive and fit in 64 bits, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            raise ArgumentError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimReport:
    empirical_mse: tuple[float, ...]
    analytic_d: tuple[float, ...]
    stderr: tuple[float, ...]
    z_scores: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "empirical_mse": list(self.empirical_mse),
            "analytic_d": list(self.analytic_d),
            "stderr": list(self.stderr),
            "z_scores": list(self.z_scores),
        }


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, shard])))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(_usable_cpus(), "gceo-shard"))
        return _pool[1]


def _shard_sums(G, seed: int, shard: int, m: int):
    """Per row of G, the sums of e^2 and e^4 over shard's m draws."""
    z = _shard_rng(seed, shard).standard_normal((G.shape[1], m))
    se = G @ z
    se *= se
    return se.sum(axis=1), (se * se).sum(axis=1)


def _shard_results(G, config: SimConfig):
    """Yield ``_shard_sums`` of every shard, in shard order."""
    n = config.n_samples
    shards = (n + SHARD_SIZE - 1) // SHARD_SIZE
    jobs = ((G, config.seed, k, min(SHARD_SIZE, n - k * SHARD_SIZE)) for k in range(shards))
    workers = min(shards, _usable_cpus())
    if workers == 1:
        for job in jobs:
            yield _shard_sums(*job)
        return
    pool = _executor()
    pending = deque()
    try:
        for job in jobs:
            pending.append(pool.submit(_shard_sums, *job))
            if len(pending) == IN_FLIGHT_PER_WORKER * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _error_map(instance: CeoInstance, chain, coef_scale: float = 1.0):
    """Error map G and the predicted distortions of an allocation chain.

    Stage j's estimation error is ``G[j] @ z`` for a vector z of independent
    standard normals, one entry per row of the draw plan (see the module
    docstring).  With ``coef_scale = 1`` the squares of row j sum to stage
    j's predicted distortion.
    """
    import numpy as np

    M = len(chain)
    analytic = [distortion(instance, r) for r in chain]
    sx = math.sqrt(instance.sigma_x2)
    x_weight = [1.0] * M
    columns = []
    for i in range(instance.L):
        sn = instance.sigma_n2[i]
        own = []  # (column, std) of every draw in encoder i's description
        held = None  # test-channel variance of that description
        for j in range(M - 1, -1, -1):
            v = channel_noise_from_r(instance, i, chain[j][i])
            if v == math.inf:
                continue
            if held is None:
                own.append(([0.0] * M, math.sqrt(sn + v)))
                held = v
            elif v > held:
                own.append(([0.0] * M, math.sqrt(v - held)))
                held = v
            # A variance below the held one (a rate drop within the chain
            # tolerance) reuses the held description: its increment is 0.
            c = coef_scale * analytic[j] / (sn + v)
            x_weight[j] -= c
            for column, std in own:
                column[j] = -c * std
        columns.extend(column for column, _ in own)
    return np.array([[sx * w for w in x_weight], *columns]).T, analytic


def _simulate(instance: CeoInstance, chain, config: SimConfig, coef_scale: float = 1.0) -> SimReport:
    import numpy as np

    G, analytic = _error_map(instance, chain, coef_scale)
    # Equal stages give equal rows of G; multiplying only the distinct rows
    # makes their errors, and so their statistics, bit-identical.
    G, stage_row = np.unique(G, axis=0, return_inverse=True)
    sum_se = np.zeros(len(G))
    sum_se2 = np.zeros(len(G))
    for se, se2 in _shard_results(G, config):
        sum_se += se
        sum_se2 += se2
    n = config.n_samples
    M = len(chain)
    stage_row = stage_row.reshape(M)  # 2-D in numpy 2.0.0
    sum_se, sum_se2 = sum_se[stage_row].tolist(), sum_se2[stage_row].tolist()
    mse = [s / n for s in sum_se]
    stderr = []
    for j in range(M):
        var = (sum_se2[j] - n * mse[j] ** 2) / max(n - 1, 1)
        stderr.append(math.sqrt(max(var, 0.0) / n))
    z = [
        (mse[j] - analytic[j]) / stderr[j] if stderr[j] > 0.0 else math.inf
        for j in range(M)
    ]
    return SimReport(
        empirical_mse=tuple(mse),
        analytic_d=tuple(analytic),
        stderr=tuple(stderr),
        z_scores=tuple(z),
    )


def simulate_distortion(instance: CeoInstance, r, config: SimConfig) -> SimReport:
    """Single-stage simulation of the allocation r against its predicted MMSE."""
    r = _check_allocation(instance, r)
    return _simulate(instance, [r], config)


def simulate_refinement(instance: CeoInstance, r_chain, config: SimConfig) -> SimReport:
    """Multistage simulation of a nondecreasing allocation chain.

    Stage j's estimate uses only stage j's (degraded) descriptions; each
    stage is scored against its own predicted distortion.
    """
    chain = [_check_allocation(instance, r) for r in r_chain]
    if not chain:
        raise ArgumentError("need at least one stage")
    for j in range(1, len(chain)):
        if any(a > b + CHAIN_DROP for a, b in zip(chain[j - 1], chain[j])):
            raise ArgumentError(f"allocation chain decreases at stage {j + 1}")
    return _simulate(instance, chain, config)
